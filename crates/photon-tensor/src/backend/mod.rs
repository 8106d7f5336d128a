//! Pluggable compute backends: a scalar reference implementation and a
//! SIMD microkernel path, selected once at runtime.
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
//! The process default is resolved once, in priority order:
//!
//! 1. an explicit [`set_backend`] call (the CLI `--backend` flag);
//! 2. the `PHOTON_BACKEND` environment variable (`scalar` or `simd`);
//! 3. CPU feature detection: AVX2+FMA on x86-64
//!    (`is_x86_feature_detected!`), NEON on aarch64 (baseline), otherwise
//!    scalar.
//!
//! Requesting `simd` on a host without the required features falls back to
//! scalar — runtime dispatch never regresses a host that cannot vectorize.
//!
//! [`with_backend`] overrides the default for one closure on the calling
//! thread. The override is part of the compute context
//! ([`crate::ops::pool::Context`]), so the threads a round spawns (client
//! lanes, DDP replicas, sub-federation nodes) inherit it; concurrent tests
//! pin different backends this way without touching the process default.
//! Pool workers do not see it: a kernel resolves [`active`] on the
//! submitting thread and hands the backend to its tasks.
//!
//! ## Determinism contract
//!
//! Results are bit-identical across runs *within* a fixed backend (kernels
//! are pure functions of their inputs and the pool chunk count). Across
//! backends only tolerance-bounded parity holds: the SIMD path reassociates
//! reductions (8-wide accumulator trees) and uses a polynomial `exp`, so
//! replay comparisons must pin `PHOTON_BACKEND`.
//!
//! ## GEMM
//!
//! Both backends run [`Backend::gemm`] through one driver (`ops/gemm.rs`):
//! leading dimensions on every operand, `trans_b` panels transposed inside
//! the kernel, remainder rows and columns through the same register tile.
//! A backend supplies only the tile.
//!
//! The scalar tile is held to more than determinism: each output element
//! accumulates `(alpha * a[i, p]) * b[p, j]` over ascending `p`, straight
//! into `C`, in every layout and at every edge. `photon-nn`'s attention
//! relies on it — with `beta = 0` its strided per-head GEMMs reproduce the
//! per-row `dot`/`axpy` loops they replaced bit for bit, which is what keeps
//! scalar replays (and the round-engine golden digests) unchanged. One
//! exception is pinned by the same digests: a small `A Bᵀ` on dense operands
//! (the matmuls of tiny models) sums each output as a four-chain dot. The
//! SIMD tile sums per k-block into zeroed registers and applies `alpha` once
//! per tile, so SIMD attention agrees with those loops to tolerance only.

use crate::ops::{Gemm, Window};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod simd;

pub use scalar::ScalarBackend;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub use simd::SimdBackend;

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

/// Which backend implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Portable scalar reference kernels.
    Scalar,
    /// 8-wide f32 FMA register tiles (AVX2+FMA on x86-64, NEON on aarch64).
    Simd,
}

impl BackendKind {
    /// Parses a backend name as accepted by `PHOTON_BACKEND` / `--backend`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// Stable identifier for trace args (0 = scalar, 1 = simd).
    pub fn id(self) -> u64 {
        match self {
            BackendKind::Scalar => 0,
            BackendKind::Simd => 1,
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

static SCALAR: ScalarBackend = ScalarBackend;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
static SIMD: SimdBackend = SimdBackend;

/// Returns a specific backend implementation regardless of the active
/// selection (parity tests and benchmarks compare backends side by side).
/// `Simd` on an unsupported *architecture* returns the scalar backend; on a
/// supported architecture the caller must gate on [`simd_available`].
pub fn by_kind(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Scalar => &SCALAR,
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        BackendKind::Simd => &SIMD,
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        BackendKind::Simd => &SCALAR,
    }
}

const KIND_UNSET: u8 = 0;
const KIND_SCALAR: u8 = 1;
const KIND_SIMD: u8 = 2;

static ACTIVE_KIND: AtomicU8 = AtomicU8::new(KIND_UNSET);

thread_local! {
    /// This thread's [`with_backend`] override, consulted before
    /// [`ACTIVE_KIND`].
    static SCOPED_KIND: Cell<Option<BackendKind>> = const { Cell::new(None) };
}

/// `Simd` on a host that cannot run it resolves to `Scalar`.
fn supported(kind: BackendKind) -> BackendKind {
    match kind {
        BackendKind::Simd if !simd_available() => BackendKind::Scalar,
        other => other,
    }
}

fn resolve_default() -> BackendKind {
    let requested = std::env::var("PHOTON_BACKEND")
        .ok()
        .as_deref()
        .and_then(BackendKind::parse);
    match requested {
        Some(BackendKind::Scalar) => BackendKind::Scalar,
        // An explicit `simd` request on an unsupported host falls back to
        // scalar rather than failing: zero regression on non-SIMD hosts.
        Some(BackendKind::Simd) | None => supported(BackendKind::Simd),
    }
}

/// The kind of the active backend: this thread's [`with_backend`]
/// override if one is in scope, otherwise the process default (resolved on
/// first use).
pub fn active_kind() -> BackendKind {
    if let Some(kind) = scoped_kind() {
        return kind;
    }
    match ACTIVE_KIND.load(Ordering::Relaxed) {
        KIND_SCALAR => BackendKind::Scalar,
        KIND_SIMD => BackendKind::Simd,
        _ => {
            let kind = resolve_default();
            let encoded = match kind {
                BackendKind::Scalar => KIND_SCALAR,
                BackendKind::Simd => KIND_SIMD,
            };
            // A concurrent first resolution reaches the same answer, so a
            // plain store is fine.
            ACTIVE_KIND.store(encoded, Ordering::Relaxed);
            kind
        }
    }
}

/// The active backend every kernel dispatches through.
pub fn active() -> &'static dyn Backend {
    by_kind(active_kind())
}

/// Name of the active backend (`"scalar"` / `"simd"`), for metrics and
/// trace attribution.
pub fn active_name() -> &'static str {
    active().name()
}

/// Sets the process default (the CLI `--backend` flag). Returns the kind
/// actually in effect: requesting `Simd` on a host without AVX2/NEON
/// resolves to `Scalar`. Code that needs a backend for one computation —
/// tests above all — uses [`with_backend`] instead.
pub fn set_backend(kind: BackendKind) -> BackendKind {
    let resolved = supported(kind);
    let encoded = match resolved {
        BackendKind::Scalar => KIND_SCALAR,
        BackendKind::Simd => KIND_SIMD,
    };
    ACTIVE_KIND.store(encoded, Ordering::Relaxed);
    resolved
}

/// Runs `f` with `kind` as this thread's active backend (`Simd` resolves
/// to `Scalar` on a host without AVX2/NEON), restoring the previous
/// override afterwards — also on panic.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<BackendKind>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_scoped_kind(self.0);
        }
    }
    let _restore = Restore(set_scoped_kind(Some(supported(kind))));
    f()
}

/// This thread's [`with_backend`] override, for the compute context to
/// capture.
pub(crate) fn scoped_kind() -> Option<BackendKind> {
    SCOPED_KIND.with(Cell::get)
}

/// Replaces this thread's override, returning the previous one.
pub(crate) fn set_scoped_kind(kind: Option<BackendKind>) -> Option<BackendKind> {
    SCOPED_KIND.with(|k| k.replace(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(BackendKind::parse("scalar"), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse(" SIMD "), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("avx512"), None);
    }

    #[test]
    fn by_kind_names_are_stable() {
        assert_eq!(by_kind(BackendKind::Scalar).name(), "scalar");
        if simd_available() {
            assert_eq!(by_kind(BackendKind::Simd).name(), "simd");
        }
    }

    #[test]
    fn active_backend_resolves() {
        // Whatever the environment says, the resolution must terminate and
        // agree with the reported name.
        let kind = active_kind();
        assert_eq!(active().name(), by_kind(kind).name());
        assert_eq!(active_name(), active().name());
    }

    #[test]
    fn with_backend_scopes_nests_and_stays_on_its_thread() {
        let default = active_kind();
        with_backend(BackendKind::Scalar, || {
            assert_eq!(active_kind(), BackendKind::Scalar);
            assert_eq!(active().name(), "scalar");
            with_backend(BackendKind::Simd, || {
                assert_eq!(active_kind(), supported(BackendKind::Simd));
            });
            assert_eq!(active_kind(), BackendKind::Scalar);
            // A plain spawn starts from the process default; inheriting
            // takes `pool::Context`.
            let other = std::thread::spawn(active_kind).join().unwrap();
            assert_eq!(other, default);
        });
        assert_eq!(active_kind(), default);
        assert_eq!(scoped_kind(), None);
    }
}
