//! Hand-written forward and backward kernels for every transformer layer.
//!
//! Conventions (llm.c style):
//! * batch `B`, sequence `T`, channels `C`, heads `NH`, vocab `V`;
//! * all buffers are dense row-major `f32` slices;
//! * backward kernels **accumulate** (`+=`) into gradient buffers, so a
//!   single zeroing at the start of a step supports gradient accumulation.
//!
//! Every kernel with enough work fans out over the persistent worker pool
//! in [`photon_tensor::ops::pool`]: matmuls route through
//! [`gemm_auto`], attention splits over `(batch, head)` / output rows, and
//! the row-wise kernels (layernorm, gelu, residual, cross-entropy) split
//! their rows into disjoint chunks. Chunking depends only on
//! [`pool::effective_parallelism`], never on scheduling, so results are
//! reproducible for a fixed thread budget. Kernels that reduce across rows
//! (layernorm/matmul weight and bias gradients) accumulate into per-chunk
//! partial buffers and reduce them in deterministic chunk order.

use photon_tensor::backend::{self, Backend};
use photon_tensor::ops::{add_bias_rows, gemm_auto, pool, Gemm};
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

/// Embedding lookup: `out[b,t,:] = wte[token[b,t],:]`. Row-parallel.
///
/// # Panics
/// Panics if a token id is out of vocabulary range or buffers are too short.
pub fn encoder_forward(
    out: &mut [f32],
    tokens: &[u32],
    wte: &[f32],
    bt: usize,
    c: usize,
    v: usize,
) {
    assert!(tokens.len() >= bt && out.len() >= bt * c && wte.len() >= v * c);
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
pub fn encoder_backward(dwte: &mut [f32], dout: &[f32], tokens: &[u32], bt: usize, c: usize) {
    for (i, &tok) in tokens[..bt].iter().enumerate() {
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
pub fn layernorm_forward(
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
pub fn layernorm_backward(
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

/// Backward of [`matmul_forward`]. Accumulates into `dinp`, `dweight`,
/// `dbias` (pass an empty `dbias` for bias-free layers).
///
/// Fully parallel: `dinp` row-splits, `dweight` uses the split-k
/// `trans_a` GEMM path (per-worker accumulators, deterministic reduce), and
/// `dbias` reduces per-chunk partials in chunk order.
#[allow(clippy::too_many_arguments)]
pub fn matmul_backward(
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
    // dinp[bt, ic] += dout[bt, oc] @ weight[oc, ic]
    gemm_auto(Gemm::new(bt, oc, ic).beta(1.0), dout, weight, dinp);
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

/// Causal multi-head self-attention, optionally with ALiBi positional bias
/// (`alibi = false` for learned-position models).
///
/// * `inp`: fused QKV activations, `(B, T, 3C)` with Q at channel offset 0,
///   K at `C`, V at `2C`;
/// * `preatt`, `att`: `(B, NH, T, T)` scratch (masked logits / softmax);
/// * `out`: `(B, T, C)` attention output (pre-projection).
///
/// Two parallel phases, bitwise identical to the serial kernel: the softmax
/// phase splits over `(batch, head)` units (each owns a `(T, T)` block of
/// `preatt`/`att`), then the `att @ V` phase splits over `(batch, t)` output
/// rows.
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
    let bk = backend::active();
    let hs = c / nh;
    let scale = 1.0 / (hs as f32).sqrt();
    let c3 = 3 * c;
    let units = b * nh;
    let tt = t * t;

    // Phase 1: logits + softmax per (batch, head) unit.
    let ranges = row_chunks(units, 1);
    let preatt_chunks = pool::split_rows(&mut preatt[..units * tt], tt, &ranges);
    let att_chunks = pool::split_rows(&mut att[..units * tt], tt, &ranges);
    let tasks: Vec<pool::Task> = preatt_chunks
        .into_iter()
        .zip(att_chunks)
        .zip(&ranges)
        .map(|((pre_c, att_c), r)| {
            let r = r.clone();
            Box::new(move || {
                for (du, u) in r.clone().enumerate() {
                    let bi = u / nh;
                    let h = u % nh;
                    let slope = if alibi { alibi_slope(h, nh) } else { 0.0 };
                    let pre_u = &mut pre_c[du * tt..(du + 1) * tt];
                    let att_u = &mut att_c[du * tt..(du + 1) * tt];
                    for ti in 0..t {
                        let q = &inp[bi * t * c3 + ti * c3 + h * hs..][..hs];
                        let row_off = ti * t;

                        // Logits with causal mask + ALiBi, tracking the max
                        // for a numerically stable softmax.
                        let mut maxv = f32::NEG_INFINITY;
                        for t2 in 0..=ti {
                            let k = &inp[bi * t * c3 + t2 * c3 + c + h * hs..][..hs];
                            let dotv = bk.dot(q, k);
                            let val = dotv * scale - slope * (ti - t2) as f32;
                            pre_u[row_off + t2] = val;
                            if val > maxv {
                                maxv = val;
                            }
                        }

                        let mut expsum = 0.0f32;
                        for t2 in 0..=ti {
                            let e = (pre_u[row_off + t2] - maxv).exp();
                            att_u[row_off + t2] = e;
                            expsum += e;
                        }
                        let inv = if expsum == 0.0 { 0.0 } else { 1.0 / expsum };
                        for t2 in 0..t {
                            if t2 <= ti {
                                att_u[row_off + t2] *= inv;
                            } else {
                                att_u[row_off + t2] = 0.0; // masked
                                pre_u[row_off + t2] = 0.0;
                            }
                        }
                    }
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);

    // Phase 2: out = att @ V per (batch, t) output row (covers all heads,
    // so each row of `out` is written by exactly one task).
    let att = &att[..units * tt];
    let ranges = row_chunks(b * t, 1);
    let out_chunks = pool::split_rows(&mut out[..b * t * c], c, &ranges);
    let tasks: Vec<pool::Task> = out_chunks
        .into_iter()
        .zip(&ranges)
        .map(|(rows, r)| {
            let r = r.clone();
            Box::new(move || {
                for (o_row, bt_i) in rows.chunks_exact_mut(c).zip(r.clone()) {
                    let bi = bt_i / t;
                    let ti = bt_i % t;
                    o_row.iter_mut().for_each(|v| *v = 0.0);
                    for h in 0..nh {
                        let att_row = &att[bi * nh * tt + h * tt + ti * t..][..t];
                        let o = &mut o_row[h * hs..(h + 1) * hs];
                        for (t2, &a) in att_row[..=ti].iter().enumerate() {
                            let v = &inp[bi * t * c3 + t2 * c3 + 2 * c + h * hs..][..hs];
                            bk.axpy(a, v, o);
                        }
                    }
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Backward of [`attention_forward`]. Accumulates into `dinp` (fused QKV
/// gradient); `dpreatt`/`datt` are scratch with the same shape as
/// `preatt`/`att` and are overwritten.
///
/// Batch-parallel: each task owns one batch's contiguous `dinp` /
/// `dpreatt` / `datt` slices (per-head splitting would interleave `dinp`
/// writes across heads of the same position).
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
    let bk = backend::active();
    let hs = c / nh;
    let scale = 1.0 / (hs as f32).sqrt();
    let c3 = 3 * c;
    let tt = t * t;

    let ranges = row_chunks(b, 1);
    let dinp_chunks = pool::split_rows(&mut dinp[..b * t * c3], t * c3, &ranges);
    let dpre_chunks = pool::split_rows(&mut dpreatt[..b * nh * tt], nh * tt, &ranges);
    let datt_chunks = pool::split_rows(&mut datt[..b * nh * tt], nh * tt, &ranges);
    let tasks: Vec<pool::Task> = dinp_chunks
        .into_iter()
        .zip(dpre_chunks)
        .zip(datt_chunks)
        .zip(&ranges)
        .map(|(((dinp_c, dpre_c), datt_c), r)| {
            let r = r.clone();
            Box::new(move || {
                dpre_c.iter_mut().for_each(|v| *v = 0.0);
                datt_c.iter_mut().for_each(|v| *v = 0.0);
                for (db, bi) in r.clone().enumerate() {
                    let base = db * t * c3;
                    for h in 0..nh {
                        for ti in 0..t {
                            // Offsets into the per-batch mutable chunks use
                            // the local batch index `db`; reads from the
                            // shared buffers stay absolute.
                            let att_off = bi * nh * tt + h * tt + ti * t;
                            let datt_off = db * nh * tt + h * tt + ti * t;
                            let d_out_h = &dout[bi * t * c + ti * c + h * hs..][..hs];

                            // Backward through out = att @ V.
                            for t2 in 0..=ti {
                                let v = &inp[bi * t * c3 + t2 * c3 + 2 * c + h * hs..][..hs];
                                let a = att[att_off + t2];
                                let dv = &mut dinp_c[base + t2 * c3 + 2 * c + h * hs..][..hs];
                                datt_c[datt_off + t2] += bk.dot(v, d_out_h);
                                bk.axpy(a, d_out_h, dv);
                            }

                            // Backward through softmax.
                            let dot = bk.dot(
                                &att[att_off..att_off + ti + 1],
                                &datt_c[datt_off..datt_off + ti + 1],
                            );
                            for t2 in 0..=ti {
                                dpre_c[datt_off + t2] =
                                    att[att_off + t2] * (datt_c[datt_off + t2] - dot);
                            }

                            // Backward through q·k scaling (ALiBi bias has
                            // no params).
                            let q = &inp[bi * t * c3 + ti * c3 + h * hs..][..hs];
                            for t2 in 0..=ti {
                                let k = &inp[bi * t * c3 + t2 * c3 + c + h * hs..][..hs];
                                let dp = dpre_c[datt_off + t2] * scale;
                                // dq and dk live in disjoint channel slices
                                // of dinp (sequential borrows).
                                let dq = &mut dinp_c[base + ti * c3 + h * hs..][..hs];
                                bk.axpy(dp, k, dq);
                                let dk = &mut dinp_c[base + t2 * c3 + c + h * hs..][..hs];
                                bk.axpy(dp, q, dk);
                            }
                        }
                    }
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

/// Backward of [`gelu_forward`]. Accumulates into `dinp`. Element-chunked.
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
pub fn residual_forward(out: &mut [f32], a: &[f32], b: &[f32]) {
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

/// Backward of the residual: both inputs receive the output gradient.
/// Element-chunked (both gradient buffers split on the same ranges).
pub fn residual_backward(da: &mut [f32], db: &mut [f32], dout: &[f32]) {
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
                bk.axpy(1.0, dy, dbc);
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
pub fn cross_entropy_forward(
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
/// `dlogits[i, j] += (probs[i, j] - 1[j == target_i]) / BT`. Row-parallel.
pub fn cross_entropy_backward(
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
                        d[j] += (p[j] - indicator) * inv_bt;
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
