//! The scalar reference backend: portable, allocation-free inner loops.
//!
//! These are the kernels every other backend is checked against (the parity
//! proptests bound SIMD-vs-scalar divergence). The GEMM tile runs under the
//! shared driver (`ops/gemm.rs`) and uses no explicit vector intrinsics — the
//! compiler's autovectorizer is welcome to do what it can.

use super::Backend;
use crate::ops::{drive, scale_beta, Gemm, Tile, Window};

/// The portable register tile: four rows of C updated together so each
/// loaded panel value feeds four multiply-adds. It accumulates
/// `(alpha * a[r, p]) * b[p, j]` straight into C in ascending `p` (no
/// value-dependent skips: a zero in A must still propagate NaN/Inf from B),
/// the summation order the determinism contract in [`super`] pins.
struct ScalarTile;

impl Tile for ScalarTile {
    const MR: usize = 4;
    const NR: usize = 16;

    #[allow(unsafe_code)]
    unsafe fn tile(
        rows: usize,
        _cols: usize,
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
        // SAFETY: the caller guarantees `rows` C rows of `NR` floats, `kc`
        // panel rows of `NR` floats and the `rows x kc` block of A.
        unsafe {
            if store {
                for r in 0..rows {
                    std::ptr::write_bytes(c.add(r * ldc), 0, Self::NR);
                }
            }
            for p in 0..kc {
                let b_row = &*panel.add(p * ldp).cast::<[f32; Self::NR]>();
                for r in 0..rows {
                    let s = alpha * *a.add(r * rs_a + p * cs_a);
                    let c_row = &mut *c.add(r * ldc).cast::<[f32; Self::NR]>();
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += s * bv;
                    }
                }
            }
        }
    }
}

/// Four-accumulator dot product; the split accumulators expose instruction-
/// level parallelism the single-chain version cannot.
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut xs = x.chunks_exact(4);
    let mut ys = y.chunks_exact(4);
    for (xc, yc) in xs.by_ref().zip(ys.by_ref()) {
        acc[0] += xc[0] * yc[0];
        acc[1] += xc[1] * yc[1];
        acc[2] += xc[2] * yc[2];
        acc[3] += xc[3] * yc[3];
    }
    let mut tail = 0.0f32;
    for (&xv, &yv) in xs.remainder().iter().zip(ys.remainder()) {
        tail += xv * yv;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dense `A B^T` problems below this many flops (`2 m k n`), or with fewer
/// than eight rows, sum every output as a [`dot4`] of two contiguous rows.
const DOT_FORM_MAX_FLOPS: usize = 1 << 16;

/// Whether `spec` is one of the shapes whose reference result is the
/// four-chain dot form rather than the ascending-`p` tile: a small `A B^T`
/// with both operands dense — what the matmuls of tiny models have always
/// computed. It is a property of this reference's recorded bits (the golden
/// digests), not a tuning decision: strided operands (a head's `Q K^T`) and
/// larger problems sum in ascending `p` like every other layout.
fn is_dot_form(spec: &Gemm) -> bool {
    let dense = spec.lda == spec.k && spec.ldb == spec.k;
    let small = spec.m < 8 || spec.flops() < DOT_FORM_MAX_FLOPS;
    !spec.trans_a && spec.trans_b && dense && small
}

/// `C = alpha * A B^T + beta * C`, every output a dot of two contiguous rows.
fn gemm_nt_dots(spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>) {
    spec.check(a.len(), b.len(), c);
    let (k, n) = (spec.k, spec.n);
    scale_beta(c, spec.m, n, spec.beta);
    for i in 0..spec.m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, cv) in c.row_mut(i)[..n].iter_mut().enumerate() {
            *cv += spec.alpha * dot4(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

pub(crate) const GELU_S: f32 = 0.797_884_6; // sqrt(2/pi)
pub(crate) const LN_EPS: f32 = 1e-5;

/// The scalar reference backend (unit struct — all state lives in the
/// slices it operates on).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>) {
        if is_dot_form(&spec) {
            gemm_nt_dots(spec, a, b, c);
        } else {
            drive::<ScalarTile>(spec, a, b, c);
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    fn axpy(&self, alpha: f32, src: &[f32], dst: &mut [f32]) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += alpha * s;
        }
    }

    fn add(&self, out: &mut [f32], a: &[f32], b: &[f32]) {
        assert_eq!(out.len(), a.len(), "add length mismatch");
        assert_eq!(out.len(), b.len(), "add length mismatch");
        for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
            *o = av + bv;
        }
    }

    fn gelu(&self, out: &mut [f32], inp: &[f32]) {
        assert_eq!(out.len(), inp.len(), "gelu length mismatch");
        for (o, &x) in out.iter_mut().zip(inp) {
            let cube = 0.044715 * x * x * x;
            *o = 0.5 * x * (1.0 + (GELU_S * (x + cube)).tanh());
        }
    }

    fn gelu_grad(&self, dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        assert_eq!(dinp.len(), inp.len(), "gelu_grad length mismatch");
        assert_eq!(dinp.len(), dout.len(), "gelu_grad length mismatch");
        for ((di, &x), &dy) in dinp.iter_mut().zip(inp).zip(dout) {
            let cube = 0.044715 * x * x * x;
            let tanh_arg = GELU_S * (x + cube);
            let tanh_out = tanh_arg.tanh();
            let sech2 = 1.0 - tanh_out * tanh_out;
            let local =
                0.5 * (1.0 + tanh_out) + x * 0.5 * sech2 * GELU_S * (1.0 + 3.0 * 0.044715 * x * x);
            *di = local * dy;
        }
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
        let m = x.iter().sum::<f32>() / c as f32;
        let var = x.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / c as f32;
        let rs = 1.0 / (var + LN_EPS).sqrt();
        for j in 0..c {
            out[j] = (x[j] - m) * rs * weight[j] + bias[j];
        }
        (m, rs)
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

        // Two reductions over the row.
        let mut dnorm_mean = 0.0f32;
        let mut dnorm_norm_mean = 0.0f32;
        for j in 0..c {
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dout_row[j];
            dnorm_mean += dnorm;
            dnorm_norm_mean += dnorm * norm;
        }
        dnorm_mean /= c as f32;
        dnorm_norm_mean /= c as f32;

        for j in 0..c {
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dout_row[j];
            dbias[j] += dout_row[j];
            dweight[j] += norm * dout_row[j];
            dinp_row[j] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rstd;
        }
    }

    fn softmax_row(&self, probs: &mut [f32], logits: &[f32]) {
        let v = logits.len();
        assert_eq!(probs.len(), v, "softmax_row length mismatch");
        let maxv = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for j in 0..v {
            let e = (logits[j] - maxv).exp();
            probs[j] = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        probs.iter_mut().for_each(|x| *x *= inv);
    }
}
