#![allow(unsafe_code)] // `core::arch` intrinsics; every entry point re-checks CPU support.

//! SIMD microkernel backend: 8-wide f32 FMA register tiles via `core::arch`.
//!
//! On x86-64 the kernels require AVX2+FMA and are compiled with
//! `#[target_feature]`; the safe wrappers assert runtime support before
//! entering them, so constructing [`SimdBackend`] on an unsupported host
//! panics instead of executing illegal instructions. On aarch64 the GEMM
//! and vector primitives use NEON (baseline on AArch64); the
//! transcendental row kernels (GELU / softmax) delegate to the scalar
//! reference there. GEMM is the shared driver in `ops/gemm.rs` around each
//! ISA's register tile: the tile is the only GEMM code in this file.
//!
//! Numerics: reductions are reassociated into 8-wide accumulator trees and
//! `exp` is a Cephes-style degree-6 polynomial (relative error ~1e-6), so
//! SIMD results are tolerance-equal — not bit-equal — to scalar. Within
//! this backend every kernel is a pure function of its inputs: replays are
//! bit-identical for a fixed backend.

use super::{Backend, ScalarBackend};
use crate::ops::{drive, Gemm, Window};

const SCALAR_REF: ScalarBackend = ScalarBackend;

/// The SIMD backend (AVX2+FMA / NEON register-tiled kernels).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SimdBackend;

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>) {
        arch::require_simd();
        drive::<arch::RegisterTile>(spec, a, b, c);
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

    #[cfg(target_arch = "x86_64")]
    fn causal_softmax(
        &self,
        att: &mut [f32],
        preatt: &mut [f32],
        t: usize,
        scale: f32,
        slope: f32,
    ) {
        assert_eq!(att.len(), t * t, "causal_softmax block mismatch");
        assert_eq!(preatt.len(), t * t, "causal_softmax block mismatch");
        arch::causal_softmax(att, preatt, t, scale, slope);
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! AVX2+FMA kernels. Every public wrapper asserts runtime CPU support
    //! before entering a `#[target_feature]` function, making the wrappers
    //! sound even if `SimdBackend` is constructed directly.

    use super::{Backend, SCALAR_REF};
    use crate::ops::Tile;
    use core::arch::x86_64::*;

    pub(super) fn require_simd() {
        assert!(
            crate::backend::simd_available(),
            "SIMD backend used on a host without AVX2+FMA"
        );
    }

    /// The AVX2+FMA register tile: 6x16 (12 accumulators plus 2 panel lanes
    /// plus 1 broadcast = 15 of 16 ymm), the last rows of a ragged `m`
    /// through the same loop at 1 to 5 rows.
    pub(super) struct RegisterTile;

    impl Tile for RegisterTile {
        const MR: usize = 6;
        const NR: usize = 16;

        unsafe fn tile(
            rows: usize,
            kc: usize,
            a: *const f32,
            rs_a: usize,
            cs_a: usize,
            panel: *const f32,
            ldp: usize,
            c: *mut f32,
            ldc: usize,
            alpha: f32,
            store: bool,
        ) {
            // SAFETY: the caller's contract, passed on unchanged; AVX2+FMA
            // was verified by `SimdBackend::gemm` before the driver ran.
            unsafe {
                match rows {
                    6 => tile_avx2::<6>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    5 => tile_avx2::<5>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    4 => tile_avx2::<4>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    3 => tile_avx2::<3>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    2 => tile_avx2::<2>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    _ => tile_avx2::<1>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                }
            }
        }

        unsafe fn pack_transposed(
            panel: *mut f32,
            b: *const f32,
            ldb: usize,
            nr: usize,
            kc: usize,
        ) {
            // SAFETY: as above.
            unsafe { pack_transposed_avx2(panel, b, ldb, nr, kc) }
        }
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

    pub(super) fn causal_softmax(
        att: &mut [f32],
        pre: &mut [f32],
        t: usize,
        scale: f32,
        slope: f32,
    ) {
        require_simd();
        // SAFETY: as above; both blocks are `t * t` long (checked by caller).
        unsafe { causal_softmax_avx2(att, pre, t, scale, slope) }
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

    /// Horizontal max of one 8-lane register.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// [`Tile::tile`] at `R` rows: accumulators zeroed per call and merged
    /// into C with one FMA per lane, so the inner loop is pure
    /// broadcast-load-FMA. Each output element keeps its own accumulator
    /// summed over `p` in order, so results do not depend on `R`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_avx2<const R: usize>(
        kc: usize,
        a: *const f32,
        rs_a: usize,
        cs_a: usize,
        panel: *const f32,
        ldp: usize,
        c: *mut f32,
        ldc: usize,
        alpha: f32,
        store: bool,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for p in 0..kc {
            let brow = panel.add(p * ldp);
            let b0 = _mm256_loadu_ps(brow);
            let b1 = _mm256_loadu_ps(brow.add(8));
            let acol = a.add(p * cs_a);
            for (r, accr) in acc.iter_mut().enumerate() {
                let s = _mm256_set1_ps(*acol.add(r * rs_a));
                accr[0] = _mm256_fmadd_ps(s, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(s, b1, accr[1]);
            }
        }
        let alpha_v = _mm256_set1_ps(alpha);
        for (r, accr) in acc.iter().enumerate() {
            let crow = c.add(r * ldc);
            // A store still adds to an explicit zero: `alpha * acc + 0`, the
            // value the accumulate form leaves in a zeroed C.
            let (c0, c1) = if store {
                (_mm256_setzero_ps(), _mm256_setzero_ps())
            } else {
                (_mm256_loadu_ps(crow), _mm256_loadu_ps(crow.add(8)))
            };
            _mm256_storeu_ps(crow, _mm256_fmadd_ps(alpha_v, accr[0], c0));
            _mm256_storeu_ps(crow.add(8), _mm256_fmadd_ps(alpha_v, accr[1], c1));
        }
    }

    /// Transposes eight 8-lane rows in registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// [`Tile::pack_transposed`]: 8x8 blocks through [`transpose8`] (rows
    /// past `nr` read as zero), the last `kc % 8` panel rows one element at
    /// a time.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn pack_transposed_avx2(
        panel: *mut f32,
        b: *const f32,
        ldb: usize,
        nr: usize,
        kc: usize,
    ) {
        const NR: usize = RegisterTile::NR;
        let body = kc - kc % 8;
        for j0 in [0, 8] {
            for p0 in (0..body).step_by(8) {
                let mut rows = [_mm256_setzero_ps(); 8];
                for (j, row) in rows.iter_mut().enumerate().take(nr.saturating_sub(j0)) {
                    *row = _mm256_loadu_ps(b.add((j0 + j) * ldb + p0));
                }
                for (p, col) in transpose8(rows).into_iter().enumerate() {
                    _mm256_storeu_ps(panel.add((p0 + p) * NR + j0), col);
                }
            }
        }
        for p in body..kc {
            for j in 0..NR {
                let v = if j < nr { *b.add(j * ldb + p) } else { 0.0 };
                *panel.add(p * NR + j) = v;
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
        let s_v = _mm256_set1_ps(crate::backend::scalar::GELU_S);
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
        let s_v = _mm256_set1_ps(crate::backend::scalar::GELU_S);
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
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(local, dy));
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
        let rstd = 1.0 / (var + crate::backend::scalar::LN_EPS).sqrt();

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
        let max_b = _mm256_set1_ps(hmax(max_v));

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

    /// Eight lanes at `p`, or only those `in_row` selects (the rest read as
    /// zero) when the vector crosses the end of its row.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load8(p: *const f32, ragged: bool, in_row: __m256i) -> __m256 {
        if ragged {
            _mm256_maskload_ps(p, in_row)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// Counterpart of [`load8`].
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store8(p: *mut f32, ragged: bool, in_row: __m256i, v: __m256) {
        if ragged {
            _mm256_maskstore_ps(p, in_row, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// [`Backend::causal_softmax`]: rows in whole vectors with the causal
    /// mask folded in as a lane mask (dead lanes read as `-inf` for the max,
    /// add `0` to the sum and store `0`), four rows at a time where four
    /// share a vector count: a row is one max -> exp -> sum -> divide
    /// dependency chain, and four independent chains fill the pipeline one
    /// leaves idle. Per element the arithmetic is that of the scalar bias
    /// loop followed by `softmax_row_avx2` on the prefix.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn causal_softmax_avx2(
        att: &mut [f32],
        pre: &mut [f32],
        t: usize,
        scale: f32,
        slope: f32,
    ) {
        let mut ti = 0;
        while ti < t {
            // Rows `8g..8g + 8` all span `g + 1` vectors.
            if ti + 4 <= ((ti / 8 + 1) * 8).min(t) {
                causal_rows_avx2::<4>(att, pre, t, ti, scale, slope);
                ti += 4;
            } else {
                causal_rows_avx2::<1>(att, pre, t, ti, scale, slope);
                ti += 1;
            }
        }
    }

    /// Rows `ti0..ti0 + N` of [`causal_softmax_avx2`]; they must lie in one
    /// group of eight (`ti0 / 8 == (ti0 + N - 1) / 8`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn causal_rows_avx2<const N: usize>(
        att: &mut [f32],
        pre: &mut [f32],
        t: usize,
        ti0: usize,
        scale: f32,
        slope: f32,
    ) {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let scale_v = _mm256_set1_ps(scale);
        let slope_v = _mm256_set1_ps(slope);
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        // The lanes of the vector at `t - t % 8` that lie inside the row.
        let in_row = _mm256_cmpgt_epi32(_mm256_set1_epi32((t % 8) as i32), iota);
        // One past the last vector that holds a live lane.
        let end = (ti0 / 8 + 1) * 8;
        // SAFETY (every access below): a vector at `j` covers elements
        // `j..j + 8` of row `ti0 + r`; it is accessed whole only when
        // `j + 8 <= t` and under `in_row` otherwise, so no lane outside
        // rows `ti0..ti0 + N` of either `t * t` block is read or written.
        let pp = pre.as_mut_ptr().add(ti0 * t);
        let ap = att.as_mut_ptr().add(ti0 * t);
        let mut ti_v = [_mm256_setzero_si256(); N];
        for (r, v) in ti_v.iter_mut().enumerate() {
            *v = _mm256_set1_epi32((ti0 + r) as i32);
        }

        let mut max_v = [neg_inf; N];
        for j in (0..end).step_by(8) {
            let lanes = _mm256_add_epi32(_mm256_set1_epi32(j as i32), iota);
            for r in 0..N {
                let dead = _mm256_castsi256_ps(_mm256_cmpgt_epi32(lanes, ti_v[r]));
                let dist = _mm256_cvtepi32_ps(_mm256_sub_epi32(ti_v[r], lanes));
                let raw = load8(pp.add(r * t + j), j + 8 > t, in_row);
                let logit =
                    _mm256_sub_ps(_mm256_mul_ps(raw, scale_v), _mm256_mul_ps(slope_v, dist));
                store8(
                    pp.add(r * t + j),
                    j + 8 > t,
                    in_row,
                    _mm256_andnot_ps(dead, logit),
                );
                max_v[r] = _mm256_max_ps(max_v[r], _mm256_blendv_ps(logit, neg_inf, dead));
            }
        }

        let mut sum_v = [_mm256_setzero_ps(); N];
        for m in &mut max_v {
            *m = _mm256_set1_ps(hmax(*m));
        }
        for j in (0..end).step_by(8) {
            let lanes = _mm256_add_epi32(_mm256_set1_epi32(j as i32), iota);
            for r in 0..N {
                let dead = _mm256_castsi256_ps(_mm256_cmpgt_epi32(lanes, ti_v[r]));
                let logit = load8(pp.add(r * t + j), j + 8 > t, in_row);
                let e = _mm256_andnot_ps(dead, exp_avx2(_mm256_sub_ps(logit, max_v[r])));
                store8(ap.add(r * t + j), j + 8 > t, in_row, e);
                sum_v[r] = _mm256_add_ps(sum_v[r], e);
            }
        }

        for s in &mut sum_v {
            *s = _mm256_set1_ps(1.0 / hsum(*s));
        }
        for j in (0..end).step_by(8) {
            let lanes = _mm256_add_epi32(_mm256_set1_epi32(j as i32), iota);
            for r in 0..N {
                let dead = _mm256_castsi256_ps(_mm256_cmpgt_epi32(lanes, ti_v[r]));
                let e = load8(ap.add(r * t + j), j + 8 > t, in_row);
                let p = _mm256_andnot_ps(dead, _mm256_mul_ps(e, sum_v[r]));
                store8(ap.add(r * t + j), j + 8 > t, in_row, p);
            }
        }

        for ti in ti0..ti0 + N {
            let masked = ti * t + end.min(t)..(ti + 1) * t;
            pre[masked.clone()].fill(0.0);
            att[masked].fill(0.0);
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
    use crate::ops::Tile;
    use core::arch::aarch64::*;

    /// NEON is mandatory on aarch64.
    pub(super) fn require_simd() {}

    /// The NEON register tile: 4x8, two 4-lane accumulators per row, the
    /// last rows of a ragged `m` through the same loop at 1 to 3 rows.
    pub(super) struct RegisterTile;

    impl Tile for RegisterTile {
        const MR: usize = 4;
        const NR: usize = 8;

        unsafe fn tile(
            rows: usize,
            kc: usize,
            a: *const f32,
            rs_a: usize,
            cs_a: usize,
            panel: *const f32,
            ldp: usize,
            c: *mut f32,
            ldc: usize,
            alpha: f32,
            store: bool,
        ) {
            // SAFETY: the caller's contract, passed on unchanged.
            unsafe {
                match rows {
                    4 => tile_neon::<4>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    3 => tile_neon::<3>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    2 => tile_neon::<2>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                    _ => tile_neon::<1>(kc, a, rs_a, cs_a, panel, ldp, c, ldc, alpha, store),
                }
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

    /// [`Tile::tile`] at `R` rows: accumulators zeroed per call and merged
    /// into C with one FMA per lane.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_neon<const R: usize>(
        kc: usize,
        a: *const f32,
        rs_a: usize,
        cs_a: usize,
        panel: *const f32,
        ldp: usize,
        c: *mut f32,
        ldc: usize,
        alpha: f32,
        store: bool,
    ) {
        let mut acc = [[vdupq_n_f32(0.0); 2]; R];
        for p in 0..kc {
            let brow = panel.add(p * ldp);
            let b0 = vld1q_f32(brow);
            let b1 = vld1q_f32(brow.add(4));
            let acol = a.add(p * cs_a);
            for (r, accr) in acc.iter_mut().enumerate() {
                let s = vdupq_n_f32(*acol.add(r * rs_a));
                accr[0] = vfmaq_f32(accr[0], s, b0);
                accr[1] = vfmaq_f32(accr[1], s, b1);
            }
        }
        let alpha_v = vdupq_n_f32(alpha);
        for (r, accr) in acc.iter().enumerate() {
            let crow = c.add(r * ldc);
            let (c0, c1) = if store {
                (vdupq_n_f32(0.0), vdupq_n_f32(0.0))
            } else {
                (vld1q_f32(crow), vld1q_f32(crow.add(4)))
            };
            vst1q_f32(crow, vfmaq_f32(c0, alpha_v, accr[0]));
            vst1q_f32(crow.add(4), vfmaq_f32(c1, alpha_v, accr[1]));
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
    use crate::ops::gemm_serial;
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
            let base = Gemm::new(m, k, n).alpha(0.75).beta(1.0);
            let layouts = [
                ("nn", base),
                ("nt", base.transpose_b()),
                ("tn", base.transpose_a()),
                ("tt", base.transpose_a().transpose_b()),
            ];
            for (name, spec) in layouts {
                let mut c1 = randv(m * n, 3);
                let mut c2 = c1.clone();
                gemm_serial(&sc, spec, &a, &b, &mut c1);
                gemm_serial(&sd, spec, &a, &b, &mut c2);
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
    fn simd_causal_softmax_matches_the_row_loop() {
        if !simd_available() {
            return;
        }
        // Every block size up to five vectors: rows that end inside, at and
        // past a vector, ragged row ends, and NaN above the diagonal on entry.
        for t in 1..=41 {
            let mut pre_simd = randv(t * t, t as u64);
            for (i, v) in pre_simd.iter_mut().enumerate() {
                if i % t > i / t {
                    *v = f32::NAN;
                }
            }
            let mut pre_ref = pre_simd.clone();
            let (mut att_simd, mut att_ref) = (vec![f32::NAN; t * t], vec![f32::NAN; t * t]);
            SimdBackend.causal_softmax(&mut att_simd, &mut pre_simd, t, 0.25, 0.0625);
            ScalarBackend.causal_softmax(&mut att_ref, &mut pre_ref, t, 0.25, 0.0625);
            // The bias is the same three IEEE operations on both sides.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&pre_simd), bits(&pre_ref), "t = {t}");
            assert_close(&att_simd, &att_ref, 1e-5);
            for (i, v) in att_simd.iter().enumerate() {
                assert!(
                    i % t <= i / t || v.to_bits() == 0,
                    "t = {t}: att[{i}] = {v}"
                );
            }
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

        let mut d_simd = vec![f32::NAN; x.len()];
        let mut d_ref = vec![f32::NAN; x.len()];
        sd.gelu_grad(&mut d_simd, &x, &dy);
        ScalarBackend.gelu_grad(&mut d_ref, &x, &dy);
        assert_close(&d_simd, &d_ref, 1e-4);
    }
}
