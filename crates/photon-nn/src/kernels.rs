//! Hand-written forward and backward kernels for every transformer layer.
//!
//! Conventions (llm.c style):
//! * batch `B`, sequence `T`, channels `C`, heads `NH`, vocab `V`;
//! * all buffers are dense row-major `f32` slices;
//! * backward kernels **accumulate** (`+=`) into *parameter* gradients, so
//!   a single zeroing at the start of a step supports gradient accumulation;
//!   an *activation* gradient is stored (`=`) by the kernel that produces
//!   it, except on the residual stream, whose two producers accumulate.
//!
//! Every kernel with enough work fans out over the persistent worker pool
//! in [`photon_tensor::ops::pool`]: matmuls route through
//! [`gemm_auto`], attention splits into whole `(batch, head)` units, and
//! the row-wise kernels (layernorm, gelu, residual, cross-entropy) split
//! their rows into disjoint chunks. Chunking depends only on
//! [`pool::effective_parallelism`], never on scheduling, so results are
//! reproducible for a fixed thread budget. Kernels that reduce across rows
//! (layernorm/matmul weight and bias gradients) accumulate into per-chunk
//! partial buffers and reduce them in deterministic chunk order.
//!
//! Attention runs each unit as small strided GEMMs, in place over the fused
//! QKV rows (see [`attention_forward`]). Determinism contract: under the scalar
//! backend the results are bit for bit those of the per-row `dot`/`axpy`
//! loops this replaced — every sum still runs in ascending order from
//! zero — and the tests keep those loops as the reference; under the SIMD
//! backend the sums reassociate through the GEMM register tiles and the
//! softmax uses the polynomial `exp`, so only tolerance parity (1e-5)
//! holds against the loops. Masked positions are exact zeros that the
//! GEMMs multiply through, so causality is exact for finite activations.

use photon_tensor::backend::{self, Backend};
use photon_tensor::ops::{add_bias_rows, gemm_auto, gemm_serial, pool, Gemm, Window};
use std::ops::Range;

/// Splits `rows` into at most [`pool::effective_parallelism`] contiguous
/// ranges of at least `grain` rows each (single full range when the work is
/// too small to be worth the pool barrier).
fn row_chunks(rows: usize, grain: usize) -> Vec<Range<usize>> {
    let parts = pool::effective_parallelism()
        .min(rows.div_ceil(grain.max(1)))
        .max(1);
    pool::chunk_ranges(rows, parts)
}

/// Row grain that keeps each chunk at roughly `target` elements.
fn grain_for(row_len: usize, target: usize) -> usize {
    (target / row_len.max(1)).max(1)
}

/// Embedding lookup: `out[b,t,:] = wte[token[b,t],:]` for every token.
/// Row-parallel.
///
/// # Panics
/// Panics if a token id is out of vocabulary range or buffers are too short.
pub(crate) fn encoder_forward(out: &mut [f32], tokens: &[u32], wte: &[f32], c: usize, v: usize) {
    let bt = tokens.len();
    assert!(out.len() >= bt * c && wte.len() >= v * c);
    let ranges = row_chunks(bt, grain_for(c, 4096));
    let chunks = pool::split_rows(&mut out[..bt * c], c, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(chunk, r)| {
            let toks = &tokens[r.start..r.end];
            Box::new(move || {
                for (row, &tok) in chunk.chunks_exact_mut(c).zip(toks) {
                    let tok = tok as usize;
                    assert!(tok < v, "token {tok} out of vocab {v}");
                    row.copy_from_slice(&wte[tok * c..(tok + 1) * c]);
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Backward of [`encoder_forward`]: `dwte[token,:] += dout[b,t,:]`.
///
/// Serial: the scatter destination depends on token values, so positions
/// cannot be partitioned into write-disjoint chunks.
pub(crate) fn encoder_backward(dwte: &mut [f32], dout: &[f32], tokens: &[u32], c: usize) {
    for (i, &tok) in tokens.iter().enumerate() {
        let tok = tok as usize;
        let grad = &dout[i * c..(i + 1) * c];
        let dst = &mut dwte[tok * c..(tok + 1) * c];
        for (d, g) in dst.iter_mut().zip(grad) {
            *d += g;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn layernorm_rows(
    bk: &dyn Backend,
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
    inp_rows: &[f32],
    weight: &[f32],
    bias: &[f32],
    c: usize,
) {
    for (i, (x, o)) in inp_rows
        .chunks_exact(c)
        .zip(out.chunks_exact_mut(c))
        .enumerate()
    {
        let (m, rs) = bk.layernorm_row(o, x, weight, bias);
        mean[i] = m;
        rstd[i] = rs;
    }
}

/// LayerNorm forward over the last dimension. Row-parallel.
///
/// Caches per-position `mean` and reciprocal std `rstd` for the backward
/// pass. `eps = 1e-5`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layernorm_forward(
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
    inp: &[f32],
    weight: &[f32],
    bias: &[f32],
    bt: usize,
    c: usize,
) {
    let _kernel = photon_trace::span(photon_trace::Phase::KernelLayerNorm)
        .arg("bt", bt as u64)
        .arg("c", c as u64)
        .arg("backend", backend::active_kind().id());
    // Resolved here, not in the tasks: a pool worker does not see the
    // submitting thread's scoped backend.
    let bk = backend::active();
    let ranges = row_chunks(bt, grain_for(c, 2048));
    let out_chunks = pool::split_rows(&mut out[..bt * c], c, &ranges);
    let mean_chunks = pool::split_rows(&mut mean[..bt], 1, &ranges);
    let rstd_chunks = pool::split_rows(&mut rstd[..bt], 1, &ranges);
    let tasks: Vec<pool::Task> = out_chunks
        .into_iter()
        .zip(mean_chunks)
        .zip(rstd_chunks)
        .zip(&ranges)
        .map(|(((o, m), rs), r)| {
            let x = &inp[r.start * c..r.end * c];
            Box::new(move || layernorm_rows(bk, o, m, rs, x, weight, bias, c)) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

#[allow(clippy::too_many_arguments)]
fn layernorm_backward_rows(
    bk: &dyn Backend,
    dinp: &mut [f32],
    dweight: &mut [f32],
    dbias: &mut [f32],
    dout: &[f32],
    inp: &[f32],
    weight: &[f32],
    mean: &[f32],
    rstd: &[f32],
    rows: usize,
    c: usize,
) {
    for i in 0..rows {
        let x = &inp[i * c..(i + 1) * c];
        let dy = &dout[i * c..(i + 1) * c];
        let di = &mut dinp[i * c..(i + 1) * c];
        bk.layernorm_grad_row(di, dweight, dbias, dy, x, weight, mean[i], rstd[i]);
    }
}

/// Backward of [`layernorm_forward`]. Accumulates into `dinp`, `dweight`,
/// `dbias`.
///
/// Row-parallel: `dinp` rows are write-disjoint; the `dweight`/`dbias`
/// reductions go through per-chunk partial buffers merged in chunk order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layernorm_backward(
    dinp: &mut [f32],
    dweight: &mut [f32],
    dbias: &mut [f32],
    dout: &[f32],
    inp: &[f32],
    weight: &[f32],
    mean: &[f32],
    rstd: &[f32],
    bt: usize,
    c: usize,
) {
    let _kernel = photon_trace::span(photon_trace::Phase::KernelLayerNorm)
        .arg("bt", bt as u64)
        .arg("c", c as u64)
        .arg("backend", backend::active_kind().id());
    let bk = backend::active();
    let ranges = row_chunks(bt, grain_for(c, 2048));
    if ranges.len() <= 1 {
        layernorm_backward_rows(
            bk, dinp, dweight, dbias, dout, inp, weight, mean, rstd, bt, c,
        );
        return;
    }
    let dinp_chunks = pool::split_rows(&mut dinp[..bt * c], c, &ranges);
    let mut partials: Vec<(Vec<f32>, Vec<f32>)> = ranges
        .iter()
        .map(|_| (vec![0.0f32; c], vec![0.0f32; c]))
        .collect();
    let tasks: Vec<pool::Task> = dinp_chunks
        .into_iter()
        .zip(partials.iter_mut())
        .zip(&ranges)
        .map(|((di, (dw, db)), r)| {
            let r = r.clone();
            Box::new(move || {
                layernorm_backward_rows(
                    bk,
                    di,
                    dw,
                    db,
                    &dout[r.start * c..r.end * c],
                    &inp[r.start * c..r.end * c],
                    weight,
                    &mean[r.start..r.end],
                    &rstd[r.start..r.end],
                    r.len(),
                    c,
                )
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
    for (dw, db) in &partials {
        for j in 0..c {
            dweight[j] += dw[j];
            dbias[j] += db[j];
        }
    }
}

/// Linear layer forward: `out[bt, oc] = inp[bt, ic] @ weight[oc, ic]^T + bias`.
///
/// `weight` is out-features-major (PyTorch convention), and `bias` may be
/// empty for bias-free layers. The matmul and the bias add both fan out
/// over the worker pool.
pub fn matmul_forward(
    out: &mut [f32],
    inp: &[f32],
    weight: &[f32],
    bias: &[f32],
    bt: usize,
    ic: usize,
    oc: usize,
) {
    gemm_auto(Gemm::new(bt, ic, oc).transpose_b(), inp, weight, out);
    if !bias.is_empty() {
        let ranges = row_chunks(bt, grain_for(oc, 8192));
        let chunks = pool::split_rows(&mut out[..bt * oc], oc, &ranges);
        let tasks: Vec<pool::Task> = chunks
            .into_iter()
            .zip(&ranges)
            .map(|(chunk, r)| {
                let rows = r.len();
                Box::new(move || add_bias_rows(chunk, bias, rows, oc)) as pool::Task
            })
            .collect();
        pool::run_tasks(tasks);
    }
}

/// Backward of [`matmul_forward`]. Stores `dinp` (whatever it held is
/// overwritten) and accumulates into `dweight` and `dbias` (pass an empty
/// `dbias` for bias-free layers).
///
/// Fully parallel: `dinp` row-splits, `dweight` uses the split-k
/// `trans_a` GEMM path (per-worker accumulators, deterministic reduce), and
/// `dbias` reduces per-chunk partials in chunk order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_backward(
    dinp: &mut [f32],
    dweight: &mut [f32],
    dbias: &mut [f32],
    dout: &[f32],
    inp: &[f32],
    weight: &[f32],
    bt: usize,
    ic: usize,
    oc: usize,
) {
    // dinp[bt, ic] = dout[bt, oc] @ weight[oc, ic]
    gemm_auto(Gemm::new(bt, oc, ic), dout, weight, dinp);
    // dweight[oc, ic] += dout^T[oc, bt] @ inp[bt, ic]
    gemm_auto(
        Gemm::new(oc, bt, ic).transpose_a().beta(1.0),
        dout,
        inp,
        dweight,
    );
    if !dbias.is_empty() {
        let ranges = row_chunks(bt, grain_for(oc, 8192));
        if ranges.len() <= 1 {
            for row in dout[..bt * oc].chunks_exact(oc) {
                for (db, &d) in dbias.iter_mut().zip(row) {
                    *db += d;
                }
            }
            return;
        }
        let mut partials: Vec<Vec<f32>> = ranges.iter().map(|_| vec![0.0f32; oc]).collect();
        let tasks: Vec<pool::Task> = partials
            .iter_mut()
            .zip(&ranges)
            .map(|(db, r)| {
                let rows = &dout[r.start * oc..r.end * oc];
                Box::new(move || {
                    for row in rows.chunks_exact(oc) {
                        for (dbv, &d) in db.iter_mut().zip(row) {
                            *dbv += d;
                        }
                    }
                }) as pool::Task
            })
            .collect();
        pool::run_tasks(tasks);
        for db in &partials {
            for (dbv, &p) in dbias.iter_mut().zip(db) {
                *dbv += p;
            }
        }
    }
}

/// ALiBi slope for head `h` of `nh` (MPT/ALiBi convention:
/// `2^(-8 (h+1) / nh)`).
pub fn alibi_slope(h: usize, nh: usize) -> f32 {
    (2.0f32).powf(-8.0 * (h as f32 + 1.0) / nh as f32)
}

/// Query (or key) rows per causal block of a unit's GEMMs: a block of query
/// rows `[i0, i1)` multiplies keys `< i1` only, so about half of each `(T, T)`
/// product is never computed. A multiple of the widest register-tile panel,
/// so every key panel of a block is full.
const ROW_BLOCK: usize = 16;

/// The `(start, end)` row blocks of `t` rows.
fn row_blocks(t: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..t)
        .step_by(ROW_BLOCK)
        .map(move |i0| (i0, (i0 + ROW_BLOCK).min(t)))
}

/// What the `(batch, head)` units of one attention call share: the head
/// geometry and the backend, and the per-unit passes over them.
#[derive(Clone, Copy)]
struct UnitKernel<'a> {
    /// Resolved on the submitting thread: a pool worker does not see the
    /// scoped backend.
    bk: &'a dyn Backend,
    t: usize,
    c: usize,
    nh: usize,
    hs: usize,
    /// `1 / sqrt(hs)`.
    scale: f32,
}

impl<'a> UnitKernel<'a> {
    fn new(t: usize, c: usize, nh: usize) -> Self {
        assert_eq!(c % nh, 0, "channels {c} must split evenly over {nh} heads");
        let hs = c / nh;
        UnitKernel {
            bk: backend::active(),
            t,
            c,
            nh,
            hs,
            scale: 1.0 / (hs as f32).sqrt(),
        }
    }

    /// Unit `u`'s Q, K and V: `(T, hs)` column windows of the fused
    /// `(B, T, 3C)` rows, read in place with leading dimension `3C`.
    fn qkv<'b>(&self, inp: &'b [f32], u: usize) -> [&'b [f32]; 3] {
        let (bi, h) = (u / self.nh, u % self.nh);
        let q = &inp[bi * self.t * 3 * self.c + h * self.hs..];
        [q, &q[self.c..], &q[2 * self.c..]]
    }

    /// Forward pass of unit `u`: `out_u` is its window of the attention
    /// output, `pre_u` / `att_u` its `(T, T)` blocks of `preatt` / `att`.
    fn forward(
        &self,
        out_u: &mut Window<'_>,
        pre_u: &mut [f32],
        att_u: &mut [f32],
        inp: &[f32],
        u: usize,
        slope: f32,
    ) {
        let &UnitKernel {
            bk,
            t,
            c,
            hs,
            scale,
            ..
        } = self;
        let [q, k, v] = self.qkv(inp, u);
        for (i0, i1) in row_blocks(t) {
            let s = Gemm::new(i1 - i0, hs, i1).transpose_b();
            let s = s.lda(3 * c).ldb(3 * c).ldc(t);
            gemm_serial(bk, s, &q[i0 * 3 * c..], k, &mut pre_u[i0 * t..]);
        }
        bk.causal_softmax(att_u, pre_u, t, scale, slope);
        // Inside a block a masked position contributes an exact zero.
        for (i0, i1) in row_blocks(t) {
            let o = Gemm::new(i1 - i0, i1, hs).lda(t).ldb(3 * c);
            bk.gemm(o, &att_u[i0 * t..], v, &mut out_u.row_block(i0..i1));
        }
    }

    /// Backward pass of unit `u`: `dqkv_u` holds its dQ, dK and dV windows of
    /// the fused gradient, `dpre_u` / `datt_u` its `(T, T)` blocks of
    /// `dpreatt` / `datt`, `p` its block of `att`.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        dqkv_u: [&mut Window<'_>; 3],
        dpre_u: &mut [f32],
        datt_u: &mut [f32],
        p: &[f32],
        dout: &[f32],
        inp: &[f32],
        u: usize,
    ) {
        let &UnitKernel {
            bk,
            t,
            c,
            nh,
            hs,
            scale,
        } = self;
        let [q, k, v] = self.qkv(inp, u);
        let d_o = &dout[(u / nh) * t * c + (u % nh) * hs..];
        let [dq, dk, dv] = dqkv_u;

        // Backward through out = att @ V: dP = dO Vᵀ.
        for (i0, i1) in row_blocks(t) {
            let dp = Gemm::new(i1 - i0, hs, i1).transpose_b();
            let dp = dp.lda(c).ldb(3 * c).ldc(t);
            gemm_serial(bk, dp, &d_o[i0 * c..], v, &mut datt_u[i0 * t..]);
        }

        // Backward through softmax, over each row's causal prefix.
        for (ti, ((ds_row, dp_row), p_row)) in dpre_u
            .chunks_exact_mut(t)
            .zip(datt_u.chunks_exact_mut(t))
            .zip(p.chunks_exact(t))
            .enumerate()
        {
            let (ds_live, ds_masked) = ds_row.split_at_mut(ti + 1);
            let (dp_live, dp_masked) = dp_row.split_at_mut(ti + 1);
            let p_live = &p_row[..=ti];
            let dot = bk.dot(p_live, dp_live);
            for ((ds, &pv), &dp) in ds_live.iter_mut().zip(p_live).zip(&*dp_live) {
                *ds = pv * (dp - dot);
            }
            ds_masked.fill(0.0);
            dp_masked.fill(0.0);
        }

        // Backward through q·k scaling (the ALiBi bias has no parameters):
        // dQ = scale · dS K over keys at or below each query block.
        for (i0, i1) in row_blocks(t) {
            let spec = Gemm::new(i1 - i0, i1, hs).alpha(scale);
            let spec = spec.lda(t).ldb(3 * c);
            bk.gemm(spec, &dpre_u[i0 * t..], k, &mut dq.row_block(i0..i1));
        }
        // dV = Pᵀ dO and dK = scale · dSᵀ Q over queries at or after each
        // key block (earlier queries hold exact zeros in these columns).
        for (j0, j1) in row_blocks(t) {
            let spec = Gemm::new(j1 - j0, t - j0, hs).transpose_a().lda(t);
            let dv_spec = spec.ldb(c);
            bk.gemm(
                dv_spec,
                &p[j0 * t + j0..],
                &d_o[j0 * c..],
                &mut dv.row_block(j0..j1),
            );
            let dk_spec = spec.ldb(3 * c).alpha(scale);
            let ds = &dpre_u[j0 * t + j0..];
            bk.gemm(dk_spec, ds, &q[j0 * 3 * c..], &mut dk.row_block(j0..j1));
        }
    }
}

/// Causal multi-head self-attention, optionally with ALiBi positional bias
/// (`alibi = false` for learned-position models).
///
/// * `inp`: fused QKV activations, `(B, T, 3C)` with Q at channel offset 0,
///   K at `C`, V at `2C`;
/// * `preatt`, `att`: `(B, NH, T, T)` (masked, biased logits / softmax, both
///   with zeros above the diagonal);
/// * `out`: `(B, T, C)` attention output (pre-projection).
///
/// One pass per `(batch, head)` unit, whole units split over the pool. A
/// unit reads its Q, K and V in place from the fused rows (leading dimension
/// `3C`): `S = Q Kᵀ` (strided backend GEMM, straight into the unit's `preatt`
/// block) by blocks of query rows against the keys at or below the block,
/// then scale, bias, mask and softmax in one backend pass over the block,
/// then `O = P V` by the same row blocks, stored straight into the unit's
/// column window of `out`. Inside a block masked positions multiply by exact
/// zeros, so causality is exact for finite activations. A unit is computed
/// by one task with no cross-unit reduction, so the result does not depend on
/// the chunk count.
#[allow(clippy::too_many_arguments)]
pub fn attention_forward(
    out: &mut [f32],
    preatt: &mut [f32],
    att: &mut [f32],
    inp: &[f32],
    b: usize,
    t: usize,
    c: usize,
    nh: usize,
    alibi: bool,
) {
    let _kernel = photon_trace::span(photon_trace::Phase::KernelAttention)
        .arg("b", b as u64)
        .arg("t", t as u64)
        .arg("nh", nh as u64)
        .arg("backend", backend::active_kind().id());
    let unit = UnitKernel::new(t, c, nh);
    let units = b * nh;
    let tt = t * t;

    let ranges = row_chunks(units, 1);
    let mut out_windows = Window::new(&mut out[..b * t * c], b * t, c, c).grid(t, unit.hs);
    let out_chunks = pool::split_rows(&mut out_windows, 1, &ranges);
    let preatt_chunks = pool::split_rows(&mut preatt[..units * tt], tt, &ranges);
    let att_chunks = pool::split_rows(&mut att[..units * tt], tt, &ranges);
    let tasks: Vec<pool::Task> = out_chunks
        .into_iter()
        .zip(preatt_chunks)
        .zip(att_chunks)
        .zip(&ranges)
        .map(|(((out_c, pre_c), att_c), r)| {
            let r = r.clone();
            Box::new(move || {
                let blocks = out_c
                    .iter_mut()
                    .zip(pre_c.chunks_exact_mut(tt))
                    .zip(att_c.chunks_exact_mut(tt));
                for (u, ((out_u, pre_u), att_u)) in r.zip(blocks) {
                    let slope = if alibi { alibi_slope(u % nh, nh) } else { 0.0 };
                    unit.forward(out_u, pre_u, att_u, inp, u, slope);
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Backward of [`attention_forward`]. **Stores** `dinp` (the fused QKV
/// gradient): every element lies in exactly one unit's dQ, dK or dV window
/// and is written there, so whatever `dinp` held — zeros, the previous
/// step's gradient, NaN — is overwritten, not added to. `dpreatt`/`datt`
/// are scratch with the same shape as `preatt`/`att` and are overwritten too
/// (zeros above the diagonal).
///
/// Same unit grain and causal row blocks as the forward pass, all operands
/// read in place. Per unit: `dP = dO Vᵀ` (into the unit's `datt` block),
/// `dS = P ∘ (dP − rowdot(P, dP))` over each row's causal prefix (into
/// `dpreatt`), `dQ = scale · dS K`, `dV = Pᵀ dO`, `dK = scale · dSᵀ Q`, the
/// last three stored straight into the unit's column windows of `dinp`.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward(
    dinp: &mut [f32],
    dpreatt: &mut [f32],
    datt: &mut [f32],
    dout: &[f32],
    inp: &[f32],
    att: &[f32],
    b: usize,
    t: usize,
    c: usize,
    nh: usize,
) {
    let _kernel = photon_trace::span(photon_trace::Phase::KernelAttention)
        .arg("b", b as u64)
        .arg("t", t as u64)
        .arg("nh", nh as u64)
        .arg("backend", backend::active_kind().id());
    let unit = UnitKernel::new(t, c, nh);
    let units = b * nh;
    let tt = t * t;

    let ranges = row_chunks(units, 1);
    // The Q, K and V sections of the fused rows, each cut unit by unit.
    let fused = Window::new(&mut dinp[..b * t * 3 * c], b * t, 3 * c, 3 * c);
    let (dq, dkv) = fused.split_cols(c);
    let (dk, dv) = dkv.split_cols(c);
    let [mut dq, mut dk, mut dv] = [dq, dk, dv].map(|section| section.grid(t, unit.hs));
    let dq_chunks = pool::split_rows(&mut dq, 1, &ranges);
    let dk_chunks = pool::split_rows(&mut dk, 1, &ranges);
    let dv_chunks = pool::split_rows(&mut dv, 1, &ranges);
    let dpre_chunks = pool::split_rows(&mut dpreatt[..units * tt], tt, &ranges);
    let datt_chunks = pool::split_rows(&mut datt[..units * tt], tt, &ranges);
    let tasks: Vec<pool::Task> = (dq_chunks.into_iter().zip(dk_chunks).zip(dv_chunks))
        .zip(dpre_chunks.into_iter().zip(datt_chunks))
        .zip(&ranges)
        .map(|((((dq_c, dk_c), dv_c), (dpre_c, datt_c)), r)| {
            let r = r.clone();
            Box::new(move || {
                let windows = dq_c.iter_mut().zip(dk_c).zip(dv_c);
                let blocks = dpre_c.chunks_exact_mut(tt).zip(datt_c.chunks_exact_mut(tt));
                for ((u, ((dq_u, dk_u), dv_u)), (dpre_u, datt_u)) in r.zip(windows).zip(blocks) {
                    let p = &att[u * tt..(u + 1) * tt];
                    unit.backward([dq_u, dk_u, dv_u], dpre_u, datt_u, p, dout, inp, u);
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// GELU forward (tanh approximation, as in GPT-2/MPT). Element-chunked,
/// each chunk routed through the active backend.
pub fn gelu_forward(out: &mut [f32], inp: &[f32]) {
    let bk = backend::active();
    let n = out.len();
    let ranges = row_chunks(n, 4096);
    let chunks = pool::split_rows(out, 1, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(chunk, r)| {
            let x_chunk = &inp[r.start..r.end];
            Box::new(move || bk.gelu(chunk, x_chunk)) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Backward of [`gelu_forward`]. Stores `dinp`. Element-chunked.
pub fn gelu_backward(dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
    let bk = backend::active();
    let n = dinp.len();
    let ranges = row_chunks(n, 4096);
    let chunks = pool::split_rows(dinp, 1, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(chunk, r)| {
            let x_chunk = &inp[r.start..r.end];
            let dy_chunk = &dout[r.start..r.end];
            Box::new(move || bk.gelu_grad(chunk, x_chunk, dy_chunk)) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Residual connection: `out = a + b`. Element-chunked.
pub(crate) fn residual_forward(out: &mut [f32], a: &[f32], b: &[f32]) {
    let bk = backend::active();
    let n = out.len();
    let ranges = row_chunks(n, 8192);
    let chunks = pool::split_rows(out, 1, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(chunk, r)| {
            let a_chunk = &a[r.start..r.end];
            let b_chunk = &b[r.start..r.end];
            Box::new(move || bk.add(chunk, a_chunk, b_chunk)) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Backward of the residual: both inputs receive the output gradient. `da`,
/// the residual stream, accumulates it (the stream has a second producer);
/// `db`, the branch, is overwritten with it. Element-chunked (both gradient
/// buffers split on the same ranges).
pub(crate) fn residual_backward(da: &mut [f32], db: &mut [f32], dout: &[f32]) {
    let bk = backend::active();
    let n = dout.len();
    let ranges = row_chunks(n, 8192);
    let da_chunks = pool::split_rows(&mut da[..n], 1, &ranges);
    let db_chunks = pool::split_rows(&mut db[..n], 1, &ranges);
    let tasks: Vec<pool::Task> = da_chunks
        .into_iter()
        .zip(db_chunks)
        .zip(&ranges)
        .map(|((dac, dbc), r)| {
            let dy = &dout[r.start..r.end];
            Box::new(move || {
                bk.axpy(1.0, dy, dac);
                dbc.copy_from_slice(dy);
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Softmax + cross-entropy forward.
///
/// Fills `probs` `(BT, V)` and per-position `losses` `(BT,)`; returns the
/// mean loss. Targets index into the vocabulary. Rows run in parallel; the
/// final mean accumulates the per-row losses serially in row order, so the
/// result is independent of the thread count.
pub(crate) fn cross_entropy_forward(
    probs: &mut [f32],
    losses: &mut [f32],
    logits: &[f32],
    targets: &[u32],
    bt: usize,
    v: usize,
) -> f32 {
    let bk = backend::active();
    let ranges = row_chunks(bt, 1);
    let prob_chunks = pool::split_rows(&mut probs[..bt * v], v, &ranges);
    let loss_chunks = pool::split_rows(&mut losses[..bt], 1, &ranges);
    let tasks: Vec<pool::Task> = prob_chunks
        .into_iter()
        .zip(loss_chunks)
        .zip(&ranges)
        .map(|((p_rows, l_rows), r)| {
            let r = r.clone();
            Box::new(move || {
                for ((p, l), i) in p_rows
                    .chunks_exact_mut(v)
                    .zip(l_rows.iter_mut())
                    .zip(r.clone())
                {
                    let row = &logits[i * v..(i + 1) * v];
                    bk.softmax_row(p, row);
                    let target = targets[i] as usize;
                    *l = -(p[target].max(1e-30)).ln();
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
    let total: f64 = losses[..bt].iter().map(|&l| l as f64).sum();
    (total / bt as f64) as f32
}

/// Fused backward of softmax + cross-entropy for a *mean* loss:
/// `dlogits[i, j] = (probs[i, j] - 1[j == target_i]) / BT`. Row-parallel.
pub(crate) fn cross_entropy_backward(
    dlogits: &mut [f32],
    probs: &[f32],
    targets: &[u32],
    bt: usize,
    v: usize,
) {
    let inv_bt = 1.0 / bt as f32;
    let ranges = row_chunks(bt, 1);
    let chunks = pool::split_rows(&mut dlogits[..bt * v], v, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(rows, r)| {
            let r = r.clone();
            Box::new(move || {
                for (d, i) in rows.chunks_exact_mut(v).zip(r.clone()) {
                    let p = &probs[i * v..(i + 1) * v];
                    let target = targets[i] as usize;
                    for j in 0..v {
                        let indicator = if j == target { 1.0 } else { 0.0 };
                        d[j] = (p[j] - indicator) * inv_bt;
                    }
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_tensor::SeedStream;

    fn randv(n: usize, rng: &mut SeedStream) -> Vec<f32> {
        (0..n).map(|_| rng.next_normal() * 0.5).collect()
    }

    /// Central finite difference of a scalar function of one input slot.
    fn fd<F: FnMut(&[f32]) -> f32>(x: &mut [f32], i: usize, mut f: F) -> f32 {
        let h = 1e-3;
        let orig = x[i];
        x[i] = orig + h;
        let up = f(x);
        x[i] = orig - h;
        let down = f(x);
        x[i] = orig;
        (up - down) / (2.0 * h)
    }

    /// The per-row attention loops the tiled kernels replaced, kept as the
    /// reference: one backend `dot` per logit, an inline libm softmax, one
    /// `axpy` per (query, key) pair. Under the scalar backend
    /// [`attention_forward`] must match this bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn attention_forward_rows(
        out: &mut [f32],
        preatt: &mut [f32],
        att: &mut [f32],
        inp: &[f32],
        b: usize,
        t: usize,
        c: usize,
        nh: usize,
        alibi: bool,
    ) {
        let bk = backend::active();
        let hs = c / nh;
        let scale = 1.0 / (hs as f32).sqrt();
        let c3 = 3 * c;
        out[..b * t * c].fill(0.0);
        for bi in 0..b {
            for h in 0..nh {
                let slope = if alibi { alibi_slope(h, nh) } else { 0.0 };
                for ti in 0..t {
                    let q = &inp[bi * t * c3 + ti * c3 + h * hs..][..hs];
                    let row_off = (bi * nh + h) * t * t + ti * t;
                    let mut maxv = f32::NEG_INFINITY;
                    for t2 in 0..=ti {
                        let k = &inp[bi * t * c3 + t2 * c3 + c + h * hs..][..hs];
                        let val = bk.dot(q, k) * scale - slope * (ti - t2) as f32;
                        preatt[row_off + t2] = val;
                        if val > maxv {
                            maxv = val;
                        }
                    }
                    let mut expsum = 0.0f32;
                    for t2 in 0..=ti {
                        let e = (preatt[row_off + t2] - maxv).exp();
                        att[row_off + t2] = e;
                        expsum += e;
                    }
                    let inv = if expsum == 0.0 { 0.0 } else { 1.0 / expsum };
                    for t2 in 0..t {
                        if t2 <= ti {
                            att[row_off + t2] *= inv;
                        } else {
                            att[row_off + t2] = 0.0;
                            preatt[row_off + t2] = 0.0;
                        }
                    }
                    let o = &mut out[bi * t * c + ti * c + h * hs..][..hs];
                    for t2 in 0..=ti {
                        let v = &inp[bi * t * c3 + t2 * c3 + 2 * c + h * hs..][..hs];
                        bk.axpy(att[row_off + t2], v, o);
                    }
                }
            }
        }
    }

    /// Reference for [`attention_backward`]; see [`attention_forward_rows`].
    #[allow(clippy::too_many_arguments)]
    fn attention_backward_rows(
        dinp: &mut [f32],
        dpreatt: &mut [f32],
        datt: &mut [f32],
        dout: &[f32],
        inp: &[f32],
        att: &[f32],
        b: usize,
        t: usize,
        c: usize,
        nh: usize,
    ) {
        let bk = backend::active();
        let hs = c / nh;
        let scale = 1.0 / (hs as f32).sqrt();
        let c3 = 3 * c;
        dpreatt[..b * nh * t * t].fill(0.0);
        datt[..b * nh * t * t].fill(0.0);
        for bi in 0..b {
            for h in 0..nh {
                for ti in 0..t {
                    let off = (bi * nh + h) * t * t + ti * t;
                    let d_out_h = &dout[bi * t * c + ti * c + h * hs..][..hs];
                    for t2 in 0..=ti {
                        let v = &inp[bi * t * c3 + t2 * c3 + 2 * c + h * hs..][..hs];
                        let dv = &mut dinp[bi * t * c3 + t2 * c3 + 2 * c + h * hs..][..hs];
                        datt[off + t2] += bk.dot(v, d_out_h);
                        bk.axpy(att[off + t2], d_out_h, dv);
                    }
                    let dot = bk.dot(&att[off..off + ti + 1], &datt[off..off + ti + 1]);
                    for t2 in 0..=ti {
                        dpreatt[off + t2] = att[off + t2] * (datt[off + t2] - dot);
                    }
                    let q = &inp[bi * t * c3 + ti * c3 + h * hs..][..hs];
                    for t2 in 0..=ti {
                        let k = &inp[bi * t * c3 + t2 * c3 + c + h * hs..][..hs];
                        let dp = dpreatt[off + t2] * scale;
                        let dq = &mut dinp[bi * t * c3 + ti * c3 + h * hs..][..hs];
                        bk.axpy(dp, k, dq);
                        let dk = &mut dinp[bi * t * c3 + t2 * c3 + c + h * hs..][..hs];
                        bk.axpy(dp, q, dk);
                    }
                }
            }
        }
    }

    /// Every buffer either attention kernel writes, for one shape.
    #[derive(Debug, PartialEq)]
    struct AttentionRun {
        out: Vec<f32>,
        preatt: Vec<f32>,
        att: Vec<f32>,
        dinp: Vec<f32>,
        dpreatt: Vec<f32>,
        datt: Vec<f32>,
    }

    impl AttentionRun {
        fn buffers(&self) -> [(&'static str, &[f32]); 6] {
            [
                ("out", &self.out),
                ("preatt", &self.preatt),
                ("att", &self.att),
                ("dinp", &self.dinp),
                ("dpreatt", &self.dpreatt),
                ("datt", &self.datt),
            ]
        }
    }

    /// Forward then backward at one shape, through the tiled kernels or the
    /// row-loop reference. The scratch buffers start as NaN: the kernels must
    /// overwrite every element, masked ones included.
    fn attention_run(
        reference: bool,
        (b, t, nh, hs): (usize, usize, usize, usize),
        alibi: bool,
        seed: u64,
    ) -> AttentionRun {
        let c = nh * hs;
        let mut rng = SeedStream::new(seed);
        let inp = randv(b * t * 3 * c, &mut rng);
        let dout = randv(b * t * c, &mut rng);
        let scratch = || vec![f32::NAN; b * nh * t * t];
        let mut run = AttentionRun {
            out: vec![f32::NAN; b * t * c],
            preatt: scratch(),
            att: scratch(),
            dinp: vec![0.0; b * t * 3 * c],
            dpreatt: scratch(),
            datt: scratch(),
        };
        let AttentionRun {
            out,
            preatt,
            att,
            dinp,
            dpreatt,
            datt,
        } = &mut run;
        if reference {
            attention_forward_rows(out, preatt, att, &inp, b, t, c, nh, alibi);
            attention_backward_rows(dinp, dpreatt, datt, &dout, &inp, att, b, t, c, nh);
        } else {
            attention_forward(out, preatt, att, &inp, b, t, c, nh, alibi);
            attention_backward(dinp, dpreatt, datt, &dout, &inp, att, b, t, c, nh);
        }
        run
    }

    #[test]
    fn tiled_attention_matches_the_row_loops() {
        use photon_tensor::backend::{simd_available, with_backend, BackendKind};
        let mut seed = 100;
        for t in [1, 5, 16, 33, 64, 65] {
            for hs in [2, 4, 8, 16, 24] {
                for (b, nh) in [(1, 2), (3, 3)] {
                    for alibi in [true, false] {
                        seed += 1;
                        let shape = (b, t, nh, hs);
                        for kind in [BackendKind::Scalar, BackendKind::Simd] {
                            if kind == BackendKind::Simd && !simd_available() {
                                continue;
                            }
                            let tag = format!("{kind:?} b{b} t{t} nh{nh} hs{hs} alibi={alibi}");
                            let run = |reference: bool, chunks: usize| {
                                with_backend(kind, || {
                                    pool::with_parallelism(chunks, || {
                                        attention_run(reference, shape, alibi, seed)
                                    })
                                })
                            };
                            let (want, got) = (run(true, 1), run(false, 1));
                            for ((name, w), (_, g)) in want.buffers().into_iter().zip(got.buffers())
                            {
                                for (i, (x, y)) in w.iter().zip(g).enumerate() {
                                    // Scalar: the GEMM tiles sum in the row
                                    // loops' order. SIMD: reassociated sums
                                    // and a polynomial exp.
                                    let same = match kind {
                                        BackendKind::Scalar => x.to_bits() == y.to_bits(),
                                        BackendKind::Simd => {
                                            (x - y).abs() <= 1e-5 * 1.0f32.max(x.abs()).max(y.abs())
                                        }
                                    };
                                    assert!(same, "{name}[{i}] at {tag}: {x} vs {y}");
                                }
                            }
                            for chunks in [2, 4] {
                                assert_eq!(run(false, chunks), got, "{chunks} chunks at {tag}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn layernorm_grad_check() {
        let (bt, c) = (3, 8);
        let mut rng = SeedStream::new(1);
        let inp = randv(bt * c, &mut rng);
        let weight = randv(c, &mut rng);
        let bias = randv(c, &mut rng);
        let dout = randv(bt * c, &mut rng);

        let loss = |inp: &[f32], weight: &[f32], bias: &[f32]| -> f32 {
            let mut out = vec![0.0; bt * c];
            let mut mean = vec![0.0; bt];
            let mut rstd = vec![0.0; bt];
            layernorm_forward(&mut out, &mut mean, &mut rstd, inp, weight, bias, bt, c);
            out.iter().zip(&dout).map(|(o, d)| o * d).sum()
        };

        let mut out = vec![0.0; bt * c];
        let mut mean = vec![0.0; bt];
        let mut rstd = vec![0.0; bt];
        layernorm_forward(&mut out, &mut mean, &mut rstd, &inp, &weight, &bias, bt, c);
        let mut dinp = vec![0.0; bt * c];
        let mut dw = vec![0.0; c];
        let mut db = vec![0.0; c];
        layernorm_backward(
            &mut dinp, &mut dw, &mut db, &dout, &inp, &weight, &mean, &rstd, bt, c,
        );

        let mut x = inp.clone();
        for i in [0, 5, bt * c - 1] {
            let g = fd(&mut x, i, |x| loss(x, &weight, &bias));
            assert!(
                (g - dinp[i]).abs() < 2e-2,
                "dinp[{i}]: fd={g} an={}",
                dinp[i]
            );
        }
        let mut w = weight.clone();
        for i in [0, c - 1] {
            let g = fd(&mut w, i, |w| loss(&inp, w, &bias));
            assert!((g - dw[i]).abs() < 2e-2, "dw[{i}]: fd={g} an={}", dw[i]);
        }
    }

    #[test]
    fn matmul_grad_check() {
        let (bt, ic, oc) = (4, 5, 3);
        let mut rng = SeedStream::new(2);
        let inp = randv(bt * ic, &mut rng);
        let weight = randv(oc * ic, &mut rng);
        let bias = randv(oc, &mut rng);
        let dout = randv(bt * oc, &mut rng);

        let loss = |inp: &[f32], weight: &[f32], bias: &[f32]| -> f32 {
            let mut out = vec![0.0; bt * oc];
            matmul_forward(&mut out, inp, weight, bias, bt, ic, oc);
            out.iter().zip(&dout).map(|(o, d)| o * d).sum()
        };

        let mut dinp = vec![0.0; bt * ic];
        let mut dw = vec![0.0; oc * ic];
        let mut db = vec![0.0; oc];
        matmul_backward(
            &mut dinp, &mut dw, &mut db, &dout, &inp, &weight, bt, ic, oc,
        );

        let mut x = inp.clone();
        for i in [0, 7, bt * ic - 1] {
            let g = fd(&mut x, i, |x| loss(x, &weight, &bias));
            assert!((g - dinp[i]).abs() < 2e-2, "dinp[{i}]");
        }
        let mut w = weight.clone();
        for i in [0, oc * ic - 1] {
            let g = fd(&mut w, i, |w| loss(&inp, w, &bias));
            assert!((g - dw[i]).abs() < 2e-2, "dw[{i}]");
        }
        let mut bb = bias.clone();
        for i in [0, oc - 1] {
            let g = fd(&mut bb, i, |b| loss(&inp, &weight, b));
            assert!((g - db[i]).abs() < 2e-2, "db[{i}]");
        }
    }

    #[test]
    fn attention_grad_check() {
        let (b, t, c, nh) = (1, 4, 6, 2);
        let mut rng = SeedStream::new(3);
        let inp = randv(b * t * 3 * c, &mut rng);
        let dout = randv(b * t * c, &mut rng);

        let loss = |inp: &[f32]| -> f32 {
            let mut out = vec![0.0; b * t * c];
            let mut preatt = vec![0.0; b * nh * t * t];
            let mut att = vec![0.0; b * nh * t * t];
            attention_forward(&mut out, &mut preatt, &mut att, inp, b, t, c, nh, true);
            out.iter().zip(&dout).map(|(o, d)| o * d).sum()
        };

        let mut out = vec![0.0; b * t * c];
        let mut preatt = vec![0.0; b * nh * t * t];
        let mut att = vec![0.0; b * nh * t * t];
        attention_forward(&mut out, &mut preatt, &mut att, &inp, b, t, c, nh, true);
        let mut dinp = vec![0.0; b * t * 3 * c];
        let mut dpreatt = vec![0.0; b * nh * t * t];
        let mut datt = vec![0.0; b * nh * t * t];
        attention_backward(
            &mut dinp,
            &mut dpreatt,
            &mut datt,
            &dout,
            &inp,
            &att,
            b,
            t,
            c,
            nh,
        );

        let mut x = inp.clone();
        for (i, &di) in dinp.iter().enumerate() {
            let g = fd(&mut x, i, &loss);
            assert!((g - di).abs() < 3e-2, "dinp[{i}]: fd={g} an={di}");
        }
    }

    #[test]
    fn gelu_grad_check() {
        let mut rng = SeedStream::new(4);
        let inp = randv(16, &mut rng);
        let dout = randv(16, &mut rng);
        let loss = |inp: &[f32]| -> f32 {
            let mut out = vec![0.0; 16];
            gelu_forward(&mut out, inp);
            out.iter().zip(&dout).map(|(o, d)| o * d).sum()
        };
        let mut dinp = vec![0.0; 16];
        gelu_backward(&mut dinp, &inp, &dout);
        let mut x = inp.clone();
        for (i, &di) in dinp.iter().enumerate() {
            let g = fd(&mut x, i, &loss);
            assert!((g - di).abs() < 1e-2, "dinp[{i}]: fd={g} an={di}");
        }
    }

    #[test]
    fn cross_entropy_grad_check() {
        let (bt, v) = (3, 7);
        let mut rng = SeedStream::new(5);
        let logits = randv(bt * v, &mut rng);
        let targets: Vec<u32> = vec![2, 0, 6];

        let loss = |logits: &[f32]| -> f32 {
            let mut probs = vec![0.0; bt * v];
            let mut losses = vec![0.0; bt];
            cross_entropy_forward(&mut probs, &mut losses, logits, &targets, bt, v)
        };

        let mut probs = vec![0.0; bt * v];
        let mut losses = vec![0.0; bt];
        cross_entropy_forward(&mut probs, &mut losses, &logits, &targets, bt, v);
        let mut dlogits = vec![0.0; bt * v];
        cross_entropy_backward(&mut dlogits, &probs, &targets, bt, v);

        let mut x = logits.clone();
        for (i, &dl) in dlogits.iter().enumerate() {
            let g = fd(&mut x, i, &loss);
            assert!((g - dl).abs() < 1e-2, "dlogits[{i}]");
        }
    }

    #[test]
    fn attention_is_causal() {
        // Changing a *future* token's K/V must not change earlier outputs.
        let (b, t, c, nh) = (1, 5, 4, 2);
        let mut rng = SeedStream::new(6);
        let mut inp = randv(b * t * 3 * c, &mut rng);
        let run = |inp: &[f32]| -> Vec<f32> {
            let mut out = vec![0.0; b * t * c];
            let mut preatt = vec![0.0; b * nh * t * t];
            let mut att = vec![0.0; b * nh * t * t];
            attention_forward(&mut out, &mut preatt, &mut att, inp, b, t, c, nh, true);
            out
        };
        let base = run(&inp);
        // Perturb the last position's entire QKV.
        for x in inp[(t - 1) * 3 * c..t * 3 * c].iter_mut() {
            *x += 10.0;
        }
        let pert = run(&inp);
        assert_eq!(&base[..(t - 1) * c], &pert[..(t - 1) * c]);
        assert_ne!(&base[(t - 1) * c..], &pert[(t - 1) * c..]);
    }

    #[test]
    fn alibi_biases_recency() {
        // With identical K for all positions, ALiBi should make attention
        // prefer recent tokens.
        let (b, t, c, nh) = (1, 8, 4, 1);
        let inp = vec![0.5; b * t * 3 * c]; // uniform q, k, v
        let mut out = vec![0.0; b * t * c];
        let mut preatt = vec![0.0; nh * t * t];
        let mut att = vec![0.0; nh * t * t];
        attention_forward(&mut out, &mut preatt, &mut att, &inp, b, t, c, nh, true);
        let last_row = &att[(t - 1) * t..t * t];
        assert!(
            last_row.windows(2).all(|w| w[0] <= w[1] + 1e-6),
            "attention not recency-biased: {last_row:?}"
        );
    }

    #[test]
    fn alibi_slopes_decrease_with_head() {
        let s: Vec<f32> = (0..4).map(|h| alibi_slope(h, 4)).collect();
        assert!(s.windows(2).all(|w| w[0] > w[1]));
        assert!((alibi_slope(3, 4) - 2.0f32.powi(-8)).abs() < 1e-7);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let (bt, v) = (4, 9);
        let mut rng = SeedStream::new(7);
        let logits = randv(bt * v, &mut rng);
        let mut probs = vec![0.0; bt * v];
        let mut losses = vec![0.0; bt];
        cross_entropy_forward(&mut probs, &mut losses, &logits, &[0, 1, 2, 3], bt, v);
        for i in 0..bt {
            let s: f32 = probs[i * v..(i + 1) * v].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(losses.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn kernels_match_across_thread_budgets() {
        // Every parallel kernel must agree with its serial (threads = 1)
        // execution up to summation-order effects; the forward kernels here
        // are chunk-wise identical, so exact equality is required.
        let (b, t, c, nh) = (2, 6, 8, 2);
        let v = 11;
        let bt = b * t;
        let mut rng = SeedStream::new(8);
        let inp = randv(b * t * 3 * c, &mut rng);
        let logits = randv(bt * v, &mut rng);
        let targets: Vec<u32> = (0..bt as u32).map(|i| i % v as u32).collect();

        let run_fwd = |threads: usize| {
            photon_tensor::ops::pool::with_parallelism(threads, || {
                let mut out = vec![0.0; b * t * c];
                let mut preatt = vec![0.0; b * nh * t * t];
                let mut att = vec![0.0; b * nh * t * t];
                attention_forward(&mut out, &mut preatt, &mut att, &inp, b, t, c, nh, true);
                let mut probs = vec![0.0; bt * v];
                let mut losses = vec![0.0; bt];
                let loss = cross_entropy_forward(&mut probs, &mut losses, &logits, &targets, bt, v);
                (out, att, probs, loss)
            })
        };
        let serial = run_fwd(1);
        let parallel = run_fwd(4);
        assert_eq!(serial.0, parallel.0, "attention out differs");
        assert_eq!(serial.1, parallel.1, "attention softmax differs");
        assert_eq!(serial.2, parallel.2, "probs differ");
        assert_eq!(serial.3, parallel.3, "loss differs");
    }
}
