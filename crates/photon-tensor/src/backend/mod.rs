//! Compute backends: one arithmetic, computed by portable kernels or by
//! SIMD microkernels, whichever the host can run.
//!
//! Every hot kernel in the stack (GEMM in all transpose layouts — the
//! matmuls and, per head, attention — the softmax row shared by attention
//! and cross-entropy, layernorm, GELU, residual adds) routes through the
//! [`Backend`] trait, so the persistent worker pool in
//! [`crate::ops::pool`] composes with either implementation: the pool
//! decides *how work is split*, the backend decides *how each chunk is
//! computed*.
//!
//! ## Selection
//!
//! [`active`] is the SIMD backend where the CPU runs it — AVX2+FMA on
//! x86-64 (`is_x86_feature_detected!`, which std caches), NEON on aarch64
//! (baseline) — and the portable one elsewhere. On x86-64 the SIMD GEMM
//! then runs its AVX-512F tile where the CPU has `avx512f`. Nothing else
//! chooses: there is no flag, environment variable or override, because no
//! choice changes a bit.
//!
//! ## Determinism contract
//!
//! Both backends compute the same operation sequence (`scalar.rs` states
//! the rules: one FMA chain per GEMM output and `KC` block, eight logical
//! lanes and one tree for every reduction, one Cephes `exp`, the same
//! scalar tails). So a kernel's result is a pure function of its inputs —
//! not of the backend, the GEMM tile or the host's ISA — and a seeded run
//! replays bit for bit on any x86-64 or aarch64 host at a fixed pool chunk
//! count (`--threads`). NaN payloads are the one thing outside the
//! contract. The libm `tanh` of the GELU tails is the host's.
//!
//! ## GEMM
//!
//! Both backends run [`Backend::gemm`] through one driver (`ops/gemm.rs`):
//! leading dimensions on every operand, `trans_b` panels transposed inside
//! the kernel, remainder rows and columns through the same register tile.
//! A backend supplies only the tile (on x86-64 the SIMD backend has two,
//! AVX-512F and AVX2, and the CPU picks). Each tile sums every output in
//! its own accumulator from zero per `KC` block over ascending `p` with
//! fused multiply-adds, then adds `alpha * acc` to C (or to zero) in one
//! more, so the tile shape is invisible in the result.

use crate::ops::{Gemm, Window};

mod scalar;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod simd;

pub(crate) use scalar::ScalarBackend;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) use simd::SimdBackend;

/// A compute backend: the set of inner-loop kernels everything above the
/// worker pool dispatches through.
///
/// Row kernels operate on one logical row so pool chunking stays in the
/// caller.
pub trait Backend: Send + Sync {
    /// Short stable name (`"scalar"` / `"simd"`), used for trace tags and
    /// metrics attribution.
    fn name(&self) -> &'static str;

    /// `C = alpha * op(A) op(B) + beta * C` on the `(m, n)` corner of the
    /// window `c` (whose own stride stands in for `spec.ldc`), for every
    /// transpose layout and leading dimension, on the calling thread and
    /// without touching the heap. `beta = 0` overwrites whatever `c` held.
    ///
    /// # Panics
    /// Panics if a leading dimension is below its operand's physical column
    /// count, `a` or `b` does not hold its operand's last row, or `c` is
    /// smaller than `(m, n)`.
    fn gemm(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>);

    /// Dot product with single-precision accumulation (the row dot of the
    /// attention softmax backward; for the f64-accumulated reduction see
    /// [`crate::ops::dot`]).
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `dst[i] += alpha * src[i]`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn axpy(&self, alpha: f32, src: &[f32], dst: &mut [f32]);

    /// Element-wise `out[i] = a[i] + b[i]` (the residual connection).
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn add(&self, out: &mut [f32], a: &[f32], b: &[f32]);

    /// GELU forward (tanh approximation) over a chunk.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn gelu(&self, out: &mut [f32], inp: &[f32]);

    /// GELU backward over a chunk: `dinp[i] = gelu'(inp[i]) * dout[i]`
    /// (a store: the pre-activation gradient has no other producer).
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn gelu_grad(&self, dinp: &mut [f32], inp: &[f32], dout: &[f32]);

    /// LayerNorm over one row (`eps = 1e-5`): writes the normalized row and
    /// returns `(mean, rstd)` for the backward pass.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn layernorm_row(&self, out: &mut [f32], x: &[f32], weight: &[f32], bias: &[f32])
        -> (f32, f32);

    /// LayerNorm backward over one row. Accumulates into `dinp_row`,
    /// `dweight` and `dbias` (callers hand per-chunk partial buffers for the
    /// latter two).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// Numerically-stable softmax over one row:
    /// `probs[j] = exp(logits[j] - max) / sum`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn softmax_row(&self, probs: &mut [f32], logits: &[f32]);

    /// The softmax stage of one attention unit, over its `(t, t)` blocks.
    /// On entry row `ti` of `preatt` holds the raw logits `q_ti . k_j` for
    /// `j <= ti` (anything above the diagonal is ignored); on exit it holds
    /// `logit * scale - slope * (ti - j)` there and zeros above, and row
    /// `ti` of `att` holds the softmax of that prefix and zeros above.
    ///
    /// # Panics
    /// Panics if either block is not `t * t` long.
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
        let rows = preatt.chunks_exact_mut(t).zip(att.chunks_exact_mut(t));
        for (ti, (pre_row, att_row)) in rows.enumerate() {
            let (pre_live, pre_masked) = pre_row.split_at_mut(ti + 1);
            let (att_live, att_masked) = att_row.split_at_mut(ti + 1);
            for (t2, logit) in pre_live.iter_mut().enumerate() {
                *logit = *logit * scale - slope * (ti - t2) as f32;
            }
            pre_masked.fill(0.0);
            self.softmax_row(att_live, pre_live);
            att_masked.fill(0.0);
        }
    }
}

/// Whether this host can run the SIMD backend (AVX2+FMA on x86-64; always
/// true on aarch64 where NEON is baseline; false elsewhere).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// The backend every kernel dispatches through: SIMD where the host runs
/// it, the portable kernels elsewhere. Both give the same bits.
pub fn active() -> &'static dyn Backend {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if simd_available() {
        return &SimdBackend;
    }
    &ScalarBackend
}

/// The portable kernels, whatever the host runs: the reference the
/// integration tests hold [`active`] to bit for bit.
pub fn portable() -> &'static dyn Backend {
    &ScalarBackend
}

/// Name of the active backend (`"scalar"` / `"simd"`), for metrics and
/// trace attribution.
pub fn active_name() -> &'static str {
    active().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(portable().name(), "scalar");
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert_eq!(SimdBackend.name(), "simd");
    }

    #[test]
    fn active_backend_resolves() {
        let want = if simd_available() { "simd" } else { "scalar" };
        assert_eq!(active_name(), want);
    }
}
