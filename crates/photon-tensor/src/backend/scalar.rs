//! The portable backend: the x86 SIMD kernels' arithmetic in plain Rust.
//!
//! Every kernel here performs exactly the operation sequence of its AVX2
//! counterpart in `simd.rs`, so the two give the same bits (NaN payloads
//! aside). The rules that make that hold:
//!
//! - **GEMM.** Each output is an accumulator starting at `0.0`, advanced by
//!   `acc = a.mul_add(b, acc)` over ascending `p` within one `KC` block, then
//!   `c = alpha.mul_add(acc, c or 0)`: the SIMD tiles' FMA chain and
//!   epilogue, whatever the tile shape.
//! - **Reductions.** [`LANES`] logical lanes: element `j` goes to lane
//!   `j % LANES` in ascending order, and the lanes reduce through the
//!   [`hsum`] / [`hmax`] trees of the vector code.
//! - **`exp`.** The Cephes polynomial with `minps` / `maxps` clamps
//!   ([`exp`]); its constants are the ones the AVX2 code uses.
//! - **Tails.** What a vector kernel leaves to scalar code for the last
//!   `len % 8` elements stays that code: an unfused multiply and add in
//!   `dot`, `axpy` and the layernorms, libm `tanh` in the GELUs
//!   ([`gelu_tail`], [`gelu_grad_tail`], which the SIMD kernels call too).
//!   Softmax has no scalar tail: its last lanes are vector lanes.
//!
//! `f32::mul_add` is one fused instruction where the target has one
//! (aarch64, x86-64 with `+fma`) and a correctly rounded libm call
//! elsewhere, so this path is slower than the vector one but never
//! different.

use super::Backend;
use crate::ops::{drive, Gemm, Tile, Window};

/// Logical lane count of every reduction: the AVX2 register width.
const LANES: usize = 8;

pub(crate) const GELU_S: f32 = 0.797_884_6; // sqrt(2/pi)
pub(crate) const GELU_CUBE: f32 = 0.044715;
pub(crate) const LN_EPS: f32 = 1e-5;

/// `exp`'s input clamps: `x` is taken to `[EXP_LO, EXP_HI]` first.
pub(crate) const EXP_HI: f32 = 88.376_26;
pub(crate) const EXP_LO: f32 = -87.336_54;
/// `ln 2` split in two (Cody-Waite), so `x - n ln 2` loses nothing.
pub(crate) const EXP_LN2: [f32; 2] = [0.693_359_4, -2.121_944_4e-4];
/// The degree-5 polynomial of `(e^r - 1 - r) / r^2`, highest power first.
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// The portable register tile. Each output element keeps its own
/// accumulator, so the tile shape changes no bit.
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
        let mut acc = [[0.0f32; Self::NR]; Self::MR];
        // SAFETY: the caller guarantees `rows` C rows of `NR` floats, `kc`
        // panel rows of `NR` floats and the `rows x kc` block of A.
        unsafe {
            for p in 0..kc {
                let b_row = &*panel.add(p * ldp).cast::<[f32; Self::NR]>();
                for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
                    let av = *a.add(r * rs_a + p * cs_a);
                    for (acc, &bv) in acc_r.iter_mut().zip(b_row) {
                        *acc = av.mul_add(bv, *acc);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate().take(rows) {
                let c_row = &mut *c.add(r * ldc).cast::<[f32; Self::NR]>();
                for (cv, &acc) in c_row.iter_mut().zip(acc_r) {
                    *cv = alpha.mul_add(acc, if store { 0.0 } else { *cv });
                }
            }
        }
    }
}

/// The AVX2 `hsum`: `((v0+v4)+(v2+v6)) + ((v1+v5)+(v3+v7))`.
fn hsum(v: [f32; LANES]) -> f32 {
    ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]))
}

/// `maxps`: the first operand if it is greater, else the second (so a NaN
/// in either position gives the second).
fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The AVX2 `hmax`: [`hsum`]'s tree under [`maxps`].
fn hmax(v: [f32; LANES]) -> f32 {
    let m = |i: usize| maxps(v[i], v[i + 4]);
    maxps(maxps(m(0), m(2)), maxps(m(1), m(3)))
}

/// The vector code's `exp`: clamp to `[EXP_LO, EXP_HI]` (a NaN clamps to
/// `EXP_HI`, as `minps` does), split `x = n ln 2 + r`, evaluate
/// [`EXP_POLY`] on `r`, scale by `2^n` through the exponent bits.
fn exp(x: f32) -> f32 {
    let x = if x < EXP_HI { x } else { EXP_HI };
    let x = maxps(x, EXP_LO);
    let n = (x * std::f32::consts::LOG2_E).round_ties_even();
    let r = (-n).mul_add(EXP_LN2[0], x);
    let r = (-n).mul_add(EXP_LN2[1], r);
    let y = EXP_POLY[1..]
        .iter()
        .fold(EXP_POLY[0], |y, &c| y.mul_add(r, c));
    let y = y.mul_add(r * r, r + 1.0);
    y * f32::from_bits(((n as i32 + 127) << 23) as u32)
}

/// `tanh(t) = 1 - 2 / (exp(2t) + 1)`, saturating because [`exp`] clamps.
fn tanh(t: f32) -> f32 {
    1.0 - 2.0 / (exp(t + t) + 1.0)
}

/// GELU of the elements past a vector body, with libm `tanh`.
pub(crate) fn gelu_tail(out: &mut [f32], inp: &[f32]) {
    for (o, &x) in out.iter_mut().zip(inp) {
        let cube = GELU_CUBE * x * x * x;
        *o = 0.5 * x * (1.0 + (GELU_S * (x + cube)).tanh());
    }
}

/// GELU backward of the elements past a vector body, with libm `tanh`.
pub(crate) fn gelu_grad_tail(dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
    for ((di, &x), &dy) in dinp.iter_mut().zip(inp).zip(dout) {
        let cube = GELU_CUBE * x * x * x;
        let tanh_out = (GELU_S * (x + cube)).tanh();
        let sech2 = 1.0 - tanh_out * tanh_out;
        let local =
            0.5 * (1.0 + tanh_out) + x * 0.5 * sech2 * GELU_S * (1.0 + 3.0 * GELU_CUBE * x * x);
        *di = local * dy;
    }
}

/// Where the vector body of a `len`-element row ends.
fn body(len: usize) -> usize {
    len - len % LANES
}

/// The portable backend (unit struct — all state lives in the slices it
/// operates on).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>) {
        drive::<ScalarTile>(spec, a, b, c);
    }

    /// Four chains of [`LANES`] over 32-element blocks, then chain 0 over
    /// the remaining whole vectors.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = [[0.0f32; LANES]; 4];
        let fma = |chain: &mut [f32; LANES], x: &[f32], y: &[f32]| {
            for ((v, &x), &y) in chain.iter_mut().zip(x).zip(y) {
                *v = x.mul_add(y, *v);
            }
        };
        let (mut xs, mut ys) = (a.chunks_exact(4 * LANES), b.chunks_exact(4 * LANES));
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            for (chain, (x, y)) in acc.iter_mut().zip(x.chunks(LANES).zip(y.chunks(LANES))) {
                fma(chain, x, y);
            }
        }
        let (mut xs, mut ys) = (
            xs.remainder().chunks_exact(LANES),
            ys.remainder().chunks_exact(LANES),
        );
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            fma(&mut acc[0], x, y);
        }
        let mut sum = hsum(std::array::from_fn(|l| {
            (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l])
        }));
        for (&x, &y) in xs.remainder().iter().zip(ys.remainder()) {
            sum += x * y;
        }
        sum
    }

    fn axpy(&self, alpha: f32, src: &[f32], dst: &mut [f32]) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        let (dst_body, dst_tail) = dst.split_at_mut(body(src.len()));
        let (src_body, src_tail) = src.split_at(dst_body.len());
        for (d, &s) in dst_body.iter_mut().zip(src_body) {
            *d = alpha.mul_add(s, *d);
        }
        for (d, &s) in dst_tail.iter_mut().zip(src_tail) {
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
        let n = body(inp.len());
        for (o, &x) in out[..n].iter_mut().zip(inp) {
            let inner = (GELU_CUBE * (x * x)).mul_add(x, x);
            *o = (0.5 * x) * (1.0 + tanh(GELU_S * inner));
        }
        gelu_tail(&mut out[n..], &inp[n..]);
    }

    fn gelu_grad(&self, dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        assert_eq!(dinp.len(), inp.len(), "gelu_grad length mismatch");
        assert_eq!(dinp.len(), dout.len(), "gelu_grad length mismatch");
        let n = body(inp.len());
        for ((di, &x), &dy) in dinp[..n].iter_mut().zip(inp).zip(dout) {
            let x2 = x * x;
            let th = tanh(GELU_S * (GELU_CUBE * x2).mul_add(x, x));
            let sech2 = (-th).mul_add(th, 1.0);
            let poly = (3.0 * GELU_CUBE).mul_add(x2, 1.0);
            let slope = ((x * 0.5) * (sech2 * GELU_S)) * poly;
            *di = 0.5f32.mul_add(1.0 + th, slope) * dy;
        }
        gelu_grad_tail(&mut dinp[n..], &inp[n..], &dout[n..]);
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
        let n = body(c);
        let mut sum_v = [0.0f32; LANES];
        for (j, &v) in x[..n].iter().enumerate() {
            sum_v[j % LANES] += v;
        }
        let mut sum = hsum(sum_v);
        for &v in &x[n..] {
            sum += v;
        }
        let mean = sum / c as f32;

        let mut var_v = [0.0f32; LANES];
        for (j, &v) in x[..n].iter().enumerate() {
            let d = v - mean;
            var_v[j % LANES] = d.mul_add(d, var_v[j % LANES]);
        }
        let mut var = hsum(var_v);
        for &v in &x[n..] {
            let d = v - mean;
            var += d * d;
        }
        let rstd = 1.0 / (var / c as f32 + LN_EPS).sqrt();

        for j in 0..n {
            out[j] = ((x[j] - mean) * rstd).mul_add(weight[j], bias[j]);
        }
        for j in n..c {
            out[j] = (x[j] - mean) * rstd * weight[j] + bias[j];
        }
        (mean, rstd)
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
        let n = body(c);

        // Two reductions over the row.
        let (mut dm_v, mut dnm_v) = ([0.0f32; LANES], [0.0f32; LANES]);
        for j in 0..n {
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dout_row[j];
            dm_v[j % LANES] += dnorm;
            dnm_v[j % LANES] = dnorm.mul_add(norm, dnm_v[j % LANES]);
        }
        let (mut dnorm_mean, mut dnorm_norm_mean) = (hsum(dm_v), hsum(dnm_v));
        for j in n..c {
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dout_row[j];
            dnorm_mean += dnorm;
            dnorm_norm_mean += dnorm * norm;
        }
        dnorm_mean /= c as f32;
        dnorm_norm_mean /= c as f32;

        for j in 0..n {
            let dy = dout_row[j];
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dy;
            dbias[j] += dy;
            dweight[j] = norm.mul_add(dy, dweight[j]);
            let di = (-norm).mul_add(dnorm_norm_mean, dnorm - dnorm_mean);
            dinp_row[j] = di.mul_add(rstd, dinp_row[j]);
        }
        for j in n..c {
            let norm = (x[j] - mean) * rstd;
            let dnorm = weight[j] * dout_row[j];
            dbias[j] += dout_row[j];
            dweight[j] += norm * dout_row[j];
            dinp_row[j] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rstd;
        }
    }

    fn softmax_row(&self, probs: &mut [f32], logits: &[f32]) {
        assert_eq!(probs.len(), logits.len(), "softmax_row length mismatch");
        let mut max_v = [f32::NEG_INFINITY; LANES];
        for (j, &x) in logits.iter().enumerate() {
            max_v[j % LANES] = maxps(max_v[j % LANES], x);
        }
        let max = hmax(max_v);
        let mut sum_v = [0.0f32; LANES];
        for (j, (p, &x)) in probs.iter_mut().zip(logits).enumerate() {
            *p = exp(x - max);
            sum_v[j % LANES] += *p;
        }
        let inv = 1.0 / hsum(sum_v);
        probs.iter_mut().for_each(|p| *p *= inv);
    }
}
