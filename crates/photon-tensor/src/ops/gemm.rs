#![allow(unsafe_code)] // the panel driver walks raw pointers; see `drive`.

use super::pool;
use super::window::{check_extent, Window};
use crate::backend::{self, Backend};
use std::mem::MaybeUninit;

/// Specification for a general matrix multiply `C = alpha * op(A) op(B) + beta * C`.
///
/// The *logical* operand shapes are `op(A): (m, k)`, `op(B): (k, n)` and
/// `C: (m, n)`. When a transpose flag is set, the corresponding *physical*
/// buffer stores the transposed matrix, i.e. with `trans_a` the `a` slice is
/// laid out as `(k, m)` row-major.
///
/// Each operand has a leading dimension, the distance in floats between the
/// starts of consecutive rows of its *physical* matrix. The defaults are the
/// dense values (the physical column count), so an operand can be a column
/// window of a wider matrix: `Gemm::new(t, hs, t).transpose_b().lda(3 * c)`
/// reads a `(t, hs)` block out of `(t, 3c)` rows.
///
/// ```
/// use photon_tensor::ops::{gemm, Gemm};
/// let a = [1., 2., 3., 4.]; // 2x2
/// let b = [1., 0., 0., 1.]; // identity
/// let mut c = [0.0f32; 4];
/// gemm(Gemm::new(2, 2, 2), &a, &b, &mut c);
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gemm {
    /// Rows of `op(A)` and `C`.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Columns of `op(B)` and `C`.
    pub n: usize,
    /// Whether the physical `a` buffer is `(k, m)` (i.e. `op(A) = A^T`).
    pub trans_a: bool,
    /// Whether the physical `b` buffer is `(n, k)` (i.e. `op(B) = B^T`).
    pub trans_b: bool,
    /// Scale applied to the product.
    pub alpha: f32,
    /// Scale applied to the existing contents of `C` (`0.0` overwrites).
    pub beta: f32,
    /// Leading dimension of the physical `a` matrix.
    pub lda: usize,
    /// Leading dimension of the physical `b` matrix.
    pub ldb: usize,
    /// Leading dimension of `c`. [`Backend::gemm`] writes through a
    /// [`Window`] and takes the stride from it instead.
    pub ldc: usize,
}

impl Gemm {
    /// A plain `C = A B` spec with the given logical dimensions.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Gemm {
            m,
            k,
            n,
            trans_a: false,
            trans_b: false,
            alpha: 1.0,
            beta: 0.0,
            lda: k,
            ldb: n,
            ldc: n,
        }
    }

    /// Marks the `a` buffer as physically transposed (`(k, m)` layout) and
    /// resets its leading dimension to the dense `m`.
    pub fn transpose_a(mut self) -> Self {
        self.trans_a = true;
        self.lda = self.m;
        self
    }

    /// Marks the `b` buffer as physically transposed (`(n, k)` layout) and
    /// resets its leading dimension to the dense `k`.
    pub fn transpose_b(mut self) -> Self {
        self.trans_b = true;
        self.ldb = self.k;
        self
    }

    /// Sets the product scale factor.
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the accumulation factor for existing `C` contents.
    /// `beta = 1.0` accumulates into `C` (used for gradient accumulation).
    pub fn beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the leading dimension of the physical `a` matrix (call after
    /// [`Gemm::transpose_a`]).
    pub fn lda(mut self, lda: usize) -> Self {
        self.lda = lda;
        self
    }

    /// Sets the leading dimension of the physical `b` matrix (call after
    /// [`Gemm::transpose_b`]).
    pub fn ldb(mut self, ldb: usize) -> Self {
        self.ldb = ldb;
        self
    }

    /// Sets the leading dimension of `c`.
    pub fn ldc(mut self, ldc: usize) -> Self {
        self.ldc = ldc;
        self
    }

    /// Checks `a` and `b` against their physical shapes and `c` against
    /// `(m, n)`. Every safe GEMM entry runs this before a pointer is made.
    ///
    /// # Panics
    /// Panics if a leading dimension is below its column count or an
    /// operand does not hold its last row.
    pub(crate) fn check(&self, a_len: usize, b_len: usize, c: &Window<'_>) {
        let (a_rows, a_cols) = if self.trans_a {
            (self.k, self.m)
        } else {
            (self.m, self.k)
        };
        let (b_rows, b_cols) = if self.trans_b {
            (self.n, self.k)
        } else {
            (self.k, self.n)
        };
        check_extent("gemm: a", a_len, a_rows, a_cols, self.lda);
        check_extent("gemm: b", b_len, b_rows, b_cols, self.ldb);
        assert!(
            self.m <= c.rows() && self.n <= c.cols(),
            "gemm: c window smaller than ({}, {})",
            self.m,
            self.n
        );
    }

    /// `2 m k n`.
    pub(crate) fn flops(&self) -> usize {
        2 * self.m * self.k * self.n
    }
}

/// Scales the `(m, n)` corner of `c` by `beta` with the overwrite special
/// case (`beta == 0` stores zeros even over NaN/Inf garbage, matching BLAS
/// semantics). Nothing outside the corner is touched.
fn scale_beta(c: &mut Window<'_>, m: usize, n: usize, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..m {
        let row = &mut c.row_mut(i)[..n];
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            row.iter_mut().for_each(|v| *v *= beta);
        }
    }
}

/// k-dimension block: one `KC x NR` panel of B stays in L1 while the row
/// tiles of a block of A stream over it.
pub(crate) const KC: usize = 256;
/// Widest panel / tallest tile any [`Tile`] declares (sizes the driver's
/// stack buffers).
const MAX_NR: usize = 32;
const MAX_MR: usize = 12;

/// The driver's stack panel, cache-line aligned so a packed panel row of a
/// 32- or 16-wide tile starts on a line and its vector loads do not split.
#[repr(C, align(64))]
struct Panel([f32; KC * MAX_NR]);

/// The one ISA-specific piece of GEMM: an `MR x NR` register tile, and
/// optionally a faster panel transpose. [`drive`] does everything else.
pub(crate) trait Tile {
    /// Tile height (at most 12).
    const MR: usize;
    /// Tile width (at most 32).
    const NR: usize;
    /// Whether [`Tile::tile`] takes a ragged last panel itself, touching
    /// only its first `cols` columns of the panel and of C. Otherwise
    /// [`drive`] hands it a zero-padded panel and a full-width copy of the C
    /// tile, and `cols` is always `NR`.
    const MASKED: bool = false;

    /// `C = alpha * A P + C` on a `rows x cols` tile, or `C = alpha * A P +
    /// 0` when `store`. Element `(r, p)` of A is `a[r * rs_a + p * cs_a]`,
    /// row `p` of the panel P is `panel[p * ldp..][..cols]`, row `r` of C is
    /// `c[r * ldc..][..cols]`. Each output sums its `kc` products in
    /// ascending `p`.
    ///
    /// # Safety
    /// `1 <= rows <= MR`, `1 <= cols <= NR` with `cols == NR` unless
    /// `MASKED`, every element named above is in bounds for reads (A, P) or
    /// writes (C), and the ISA the implementation needs is available.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile(
        rows: usize,
        cols: usize,
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
    );

    /// Writes the transpose of `nr` rows of `kc` floats (row `j` at
    /// `b[j * ldb..]`) as a `kc x NR` panel, zero in columns `nr..NR`.
    ///
    /// # Safety
    /// `nr <= NR`, the source rows are readable, `panel` holds `kc * NR`
    /// floats, and the ISA the implementation needs is available.
    unsafe fn pack_transposed(panel: *mut f32, b: *const f32, ldb: usize, nr: usize, kc: usize) {
        for p in 0..kc {
            for j in 0..Self::NR {
                let v = if j < nr { *b.add(j * ldb + p) } else { 0.0 };
                *panel.add(p * Self::NR + j) = v;
            }
        }
    }
}

/// Copies `kc` rows of `nr` floats (`ldb` apart) into a `kc x width` panel,
/// zero in columns `nr..width`.
///
/// # Safety
/// The source rows are readable and `panel` holds `kc * width` floats.
unsafe fn pack_rows(
    panel: *mut f32,
    b: *const f32,
    ldb: usize,
    nr: usize,
    kc: usize,
    width: usize,
) {
    for p in 0..kc {
        let row = panel.add(p * width);
        std::ptr::copy_nonoverlapping(b.add(p * ldb), row, nr);
        std::ptr::write_bytes(row.add(nr), 0, width - nr);
    }
}

/// `C = alpha * op(A) op(B) + beta * C` over the `(m, n)` corner of `c`, for
/// every layout and every leading dimension, on one thread, with no heap
/// allocation.
///
/// Per `KC` block of the contraction and per `NR`-wide column panel: the
/// panel of `op(B)` is read in place (`nn` / `tn`), copied with zero padding
/// (last panel of a ragged `n`, unless the tile is [`Tile::MASKED`]) or
/// transposed (`trans_b`) into a stack buffer, then every `MR`-row tile of
/// `op(A)` (the last one shorter) runs [`Tile::tile`] against it; A is
/// always read in place through its two strides. An unmasked tile computes
/// a ragged last panel full-width on a stack copy of the C tile. So each
/// output element is one accumulator per `KC` block summed over ascending
/// `p`, whatever the tile, layout or edge.
pub(crate) fn drive<K: Tile>(spec: Gemm, a: &[f32], b: &[f32], c: &mut Window<'_>) {
    spec.check(a.len(), b.len(), c);
    let Gemm {
        m,
        k,
        n,
        alpha,
        beta,
        lda,
        ldb,
        ..
    } = spec;
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || beta != 0.0 {
        scale_beta(c, m, n, beta);
    }
    let (rs_a, cs_a) = if spec.trans_a { (1, lda) } else { (lda, 1) };
    let ldc = c.ld();
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut panel = MaybeUninit::<Panel>::uninit();
    let panel = panel.as_mut_ptr().cast::<f32>();
    let mut edge = [0.0f32; MAX_MR * MAX_NR];
    let edge = edge.as_mut_ptr();
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let store = beta == 0.0 && p0 == 0;
        for j0 in (0..n).step_by(K::NR) {
            let nr = K::NR.min(n - j0);
            // An unmasked tile computes a ragged panel on full-width copies.
            let ragged = nr < K::NR && !K::MASKED;
            let cols = if K::MASKED { nr } else { K::NR };
            // SAFETY: `spec.check` proved every `(row, col)` of the physical
            // A, B and of the `(m, n)` corner of C in bounds; the offsets
            // below stay inside `[p0, p0 + kc) x [j0, j0 + nr)` of op(B),
            // `[i0, i0 + rows) x [p0, p0 + kc)` of op(A) and
            // `[i0, i0 + rows) x [j0, j0 + nr)` of C, and a masked tile
            // touches only the first `cols = nr` columns. `panel` and `edge`
            // hold a full `KC x MAX_NR` panel and `MAX_MR x MAX_NR` tile,
            // and a pack writes all `kc * NR` floats the tiles then read.
            unsafe {
                let (bpanel, ldp) = if spec.trans_b {
                    K::pack_transposed(panel, bp.add(j0 * ldb + p0), ldb, nr, kc);
                    (panel.cast_const(), K::NR)
                } else if ragged {
                    pack_rows(panel, bp.add(p0 * ldb + j0), ldb, nr, kc, K::NR);
                    (panel.cast_const(), K::NR)
                } else {
                    (bp.add(p0 * ldb + j0), ldb)
                };
                for i0 in (0..m).step_by(K::MR) {
                    let rows = K::MR.min(m - i0);
                    let a_tile = ap.add(i0 * rs_a + p0 * cs_a);
                    let c_tile = cp.add(i0 * ldc + j0);
                    let (dst, ld_dst) = if ragged { (edge, K::NR) } else { (c_tile, ldc) };
                    if ragged && !store {
                        for r in 0..rows {
                            let src = c_tile.add(r * ldc);
                            std::ptr::copy_nonoverlapping(src, edge.add(r * K::NR), nr);
                        }
                    }
                    K::tile(
                        rows, cols, kc, a_tile, rs_a, cs_a, bpanel, ldp, dst, ld_dst, alpha, store,
                    );
                    if ragged {
                        for r in 0..rows {
                            let src = edge.add(r * K::NR);
                            std::ptr::copy_nonoverlapping(src, c_tile.add(r * ldc), nr);
                        }
                    }
                }
            }
        }
    }
}

/// Runs a spec on the calling thread through one backend, with `c` a plain
/// slice whose rows are `spec.ldc` apart. No pool. This is the entry point
/// for a kernel that fans out itself and hands the backend it resolved on
/// the submitting thread to its tasks; a kernel that owns a [`Window`]
/// calls [`Backend::gemm`] directly.
///
/// # Panics
/// Panics if a leading dimension is below its operand's column count or a
/// slice does not hold its operand's last row.
pub fn gemm_serial(bk: &dyn Backend, spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut c = Window::named("gemm: c", c, spec.m, spec.n, spec.ldc);
    bk.gemm(spec, a, b, &mut c);
}

/// Executes a [`Gemm`] spec on the calling thread through the active
/// [`crate::backend`] (portable or SIMD register tiles, the same bits). For
/// the pool-parallel entry points use [`par_gemm`] or [`gemm_auto`].
///
/// # Panics
/// As [`gemm_serial`].
pub fn gemm(spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_serial(backend::active(), spec, a, b, c);
}

/// Problems below this many flops (`2 m k n`) are not worth a trip through
/// the pool barrier.
const PAR_THRESHOLD_FLOPS: usize = 1 << 20;

/// Minimum flops per pool task: below this, waking another worker costs
/// more than it computes, so the task count is capped at
/// `flops / MIN_TASK_FLOPS` even when more threads are available.
const MIN_TASK_FLOPS: usize = 1 << 23;

/// Pool-parallel [`gemm`] with an explicit thread budget.
///
/// Row-splits `C` across the persistent worker pool for the `nn`/`nt`/`tt`
/// layouts. The `trans_a` layout (`tn`, the weight-gradient shape where `m`
/// and `n` are small but `k = B*T` is large) instead splits the
/// *contraction* dimension: each worker accumulates into a private
/// `(m, n)` partial buffer and the partials are reduced into `C` in
/// deterministic chunk order after the barrier. Small problems run
/// serially, and the task count is sized so each task gets at least
/// `MIN_TASK_FLOPS` of work (per-task overhead must amortize).
///
/// # Panics
/// As [`gemm_serial`].
pub fn par_gemm(spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    let bk = backend::active();
    let (m, k) = (spec.m, spec.k);
    let flops = spec.flops();
    let split = if spec.trans_a && !spec.trans_b { k } else { m };
    let parts = if flops < PAR_THRESHOLD_FLOPS {
        1
    } else {
        threads.min(split).min(flops / MIN_TASK_FLOPS)
    };
    if parts <= 1 {
        gemm_serial(bk, spec, a, b, c);
        return;
    }
    let mut c = Window::named("gemm: c", c, m, spec.n, spec.ldc);
    spec.check(a.len(), b.len(), &c);
    if spec.trans_a && !spec.trans_b {
        par_gemm_split_k(bk, spec, a, b, &mut c, parts);
        return;
    }
    // Logical row `i` of op(A) starts `i` physical rows (`nn`/`nt`) or `i`
    // columns (`tt`) into `a`; the leading dimension is the same either way.
    let a_step = if spec.trans_a { 1 } else { spec.lda };
    let mut tasks: Vec<pool::Task> = Vec::with_capacity(parts);
    for r in pool::chunk_ranges(m, parts) {
        let (mut rows, rest) = c.split_rows(r.len());
        c = rest;
        let sub = Gemm { m: r.len(), ..spec };
        tasks.push(Box::new(move || {
            bk.gemm(sub, &a[r.start * a_step..], b, &mut rows)
        }));
    }
    pool::run_tasks(tasks);
}

/// Split-k path for `trans_a` (physical `A: (k, m)`, `B: (k, n)`): each task
/// owns a disjoint `p`-range of the contraction and a private `(m, n)`
/// accumulator, so the hot loops are write-disjoint without locks. The
/// reduce runs on the caller in ascending chunk order — results depend only
/// on the chunk count, never on scheduling.
fn par_gemm_split_k(
    bk: &dyn Backend,
    spec: Gemm,
    a: &[f32],
    b: &[f32],
    c: &mut Window<'_>,
    parts: usize,
) {
    let (m, n) = (spec.m, spec.n);
    let ranges = pool::chunk_ranges(spec.k, parts);
    let mut partials: Vec<Vec<f32>> = ranges.iter().map(|_| vec![0.0f32; m * n]).collect();
    let tasks: Vec<pool::Task> = partials
        .iter_mut()
        .zip(&ranges)
        .map(|(buf, r)| {
            let sub = Gemm {
                k: r.len(),
                beta: 0.0,
                ldc: n,
                ..spec
            };
            let (a, b) = (&a[r.start * spec.lda..], &b[r.start * spec.ldb..]);
            Box::new(move || gemm_serial(bk, sub, a, b, buf)) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);

    scale_beta(c, m, n, spec.beta);
    for buf in &partials {
        for (i, part) in buf.chunks_exact(n).enumerate() {
            for (cv, &pv) in c.row_mut(i).iter_mut().zip(part) {
                *cv += pv;
            }
        }
    }
}

/// [`par_gemm`] sized by the ambient thread budget
/// ([`pool::effective_parallelism`]): the global `--threads` /
/// `PHOTON_THREADS` / autodetected limit, scoped down inside
/// [`pool::with_parallelism`] regions and on pool workers. This is the entry
/// point the `photon-nn` training kernels call.
pub fn gemm_auto(spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    let _kernel = photon_trace::span(photon_trace::Phase::KernelGemm)
        .arg("m", spec.m as u64)
        .arg("k", spec.k as u64)
        .arg("n", spec.n as u64);
    par_gemm(spec, a, b, c, pool::effective_parallelism());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn transpose(r: usize, c: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                t[j * r + i] = x[i * c + j];
            }
        }
        t
    }

    fn rand_vec(n: usize, rng: &mut SeedStream) -> Vec<f32> {
        (0..n).map(|_| rng.next_normal()).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn all_transpose_variants_match_naive() {
        let mut rng = SeedStream::new(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (8, 16, 8),
            (7, 3, 9),
            (5, 300, 2),
            (32, 64, 48),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let want = naive(m, k, n, &a, &b);

            let mut c = vec![0.0; m * n];
            gemm(Gemm::new(m, k, n), &a, &b, &mut c);
            assert_close(&c, &want);

            let at = transpose(m, k, &a);
            let mut c = vec![0.0; m * n];
            gemm(Gemm::new(m, k, n).transpose_a(), &at, &b, &mut c);
            assert_close(&c, &want);

            let bt = transpose(k, n, &b);
            let mut c = vec![0.0; m * n];
            gemm(Gemm::new(m, k, n).transpose_b(), &a, &bt, &mut c);
            assert_close(&c, &want);

            let mut c = vec![0.0; m * n];
            gemm(
                Gemm::new(m, k, n).transpose_a().transpose_b(),
                &at,
                &bt,
                &mut c,
            );
            assert_close(&c, &want);
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        // 1x2 * 2x1
        let mut c = [10.0f32];
        gemm(Gemm::new(1, 2, 1).alpha(2.0).beta(1.0), &a, &b, &mut c);
        assert_eq!(c[0], 10.0 + 2.0 * 11.0);
        let mut c = [10.0f32];
        gemm(Gemm::new(1, 2, 1).beta(0.5), &a, &b, &mut c);
        assert_eq!(c[0], 5.0 + 11.0);
    }

    #[test]
    fn par_gemm_matches_serial() {
        let mut rng = SeedStream::new(2);
        // 2 m k n = 2^24 = 2 * MIN_TASK_FLOPS, so the row-split path really
        // runs with two tasks under the task-sizing cap.
        let (m, k, n) = (128, 512, 128);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(Gemm::new(m, k, n), &a, &b, &mut c1);
        par_gemm(Gemm::new(m, k, n), &a, &b, &mut c2, 4);
        assert_close(&c1, &c2);
    }

    #[test]
    fn par_gemm_small_problem_skips_pool() {
        // Below MIN_TASK_FLOPS the split must collapse to a single serial
        // call (identical result regardless of the thread budget).
        let mut rng = SeedStream::new(7);
        let (m, k, n) = (64, 96, 80);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(Gemm::new(m, k, n), &a, &b, &mut c1);
        par_gemm(Gemm::new(m, k, n), &a, &b, &mut c2, 8);
        assert_eq!(c1, c2, "sub-threshold par_gemm must match serial exactly");
    }

    #[test]
    fn par_gemm_split_k_matches_serial() {
        let mut rng = SeedStream::new(3);
        // Weight-gradient shape: small (m, n), long contraction, beta = 1.
        // 2 m k n = 2^24 keeps two split-k tasks under the sizing cap.
        let (m, k, n) = (32, 4096, 64);
        let at = rand_vec(k * m, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let seed = rand_vec(m * n, &mut rng);
        let mut c1 = seed.clone();
        let mut c2 = seed.clone();
        let spec = Gemm::new(m, k, n).transpose_a().beta(1.0).alpha(0.5);
        gemm(spec, &at, &b, &mut c1);
        par_gemm(spec, &at, &b, &mut c2, 4);
        assert_close(&c1, &c2);
    }

    #[test]
    fn par_gemm_packed_trans_b_matches_serial() {
        let mut rng = SeedStream::new(8);
        let (m, k, n) = (128, 512, 128);
        let a = rand_vec(m * k, &mut rng);
        let bt = rand_vec(n * k, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        let spec = Gemm::new(m, k, n).transpose_b();
        gemm(spec, &a, &bt, &mut c1);
        par_gemm(spec, &a, &bt, &mut c2, 4);
        assert_close(&c1, &c2);
    }

    #[test]
    fn zeros_in_a_still_propagate_nan_from_b() {
        // Regression: the old kernels skipped `a == 0.0` entries, silently
        // dropping NaN/Inf contributions from B (0 * NaN must be NaN).
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, 1.0, f32::INFINITY, 2.0];
        let mut c = [0.0f32; 2];
        gemm(Gemm::new(1, 2, 2), &a, &b, &mut c);
        // Column 0 sums 0*NaN + 0*inf = NaN; column 1 sees only finite values.
        assert!(c[0].is_nan(), "0 * NaN must propagate, got {}", c[0]);
        assert_eq!(c[1], 0.0);

        let at = [0.0f32, 0.0];
        let mut c = [0.0f32; 2];
        gemm(Gemm::new(1, 2, 2).transpose_a(), &at, &b, &mut c);
        assert!(c[0].is_nan(), "trans_a path must propagate NaN");
    }

    #[test]
    fn gemm_auto_respects_thread_budget() {
        let mut rng = SeedStream::new(4);
        let (m, k, n) = (48, 64, 52);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        crate::ops::pool::with_parallelism(1, || {
            gemm_auto(Gemm::new(m, k, n), &a, &b, &mut c1);
        });
        crate::ops::pool::with_parallelism(4, || {
            gemm_auto(Gemm::new(m, k, n), &a, &b, &mut c2);
        });
        assert_close(&c1, &c2);
    }

    #[test]
    #[should_panic(expected = "a too short")]
    fn short_input_panics() {
        let mut c = [0.0f32; 4];
        gemm(Gemm::new(2, 2, 2), &[1.0; 3], &[1.0; 4], &mut c);
    }

    use crate::backend::ScalarBackend;

    /// The portable backend (`scalar`) or the active one (`simd`, which is
    /// the portable one on a host without SIMD).
    fn backend_named(name: &str) -> &'static dyn Backend {
        match name {
            "scalar" => &ScalarBackend,
            _ => backend::active(),
        }
    }

    /// Runs `spec` on zero-filled operands of the given lengths.
    fn run_lens(name: &str, spec: Gemm, (a, b, c): (usize, usize, usize)) {
        let bk = backend_named(name);
        gemm_serial(bk, spec, &vec![0.0; a], &vec![0.0; b], &mut vec![0.0; c]);
    }

    /// One module per violated precondition, one `#[should_panic]` test per
    /// backend in it: the check sits in front of each backend's pointers.
    macro_rules! rejects {
        ($($name:ident: $msg:literal, $spec:expr, $lens:expr;)*) => {$(
            mod $name {
                use super::*;

                #[test]
                #[should_panic(expected = $msg)]
                fn scalar() {
                    run_lens("scalar", $spec, $lens);
                }

                #[test]
                #[should_panic(expected = $msg)]
                fn simd() {
                    run_lens("simd", $spec, $lens);
                }
            }
        )*};
    }

    // A is physically (4, 3) / (3, 4) transposed, B (3, 5) / (5, 3), C (4, 5).
    rejects! {
        lda_below_the_columns: "gemm: a: leading dimension 2 < 3 columns",
            Gemm::new(4, 3, 5).lda(2), (12, 15, 20);
        lda_below_the_transposed_columns: "gemm: a: leading dimension 3 < 4 columns",
            Gemm::new(4, 3, 5).transpose_a().lda(3), (12, 15, 20);
        a_missing_its_last_row: "gemm: a too short",
            Gemm::new(4, 3, 5).lda(6), (20, 15, 20);
        ldb_below_the_columns: "gemm: b: leading dimension 4 < 5 columns",
            Gemm::new(4, 3, 5).ldb(4), (12, 15, 20);
        ldb_below_the_transposed_columns: "gemm: b: leading dimension 2 < 3 columns",
            Gemm::new(4, 3, 5).transpose_b().ldb(2), (12, 15, 20);
        b_missing_its_last_row: "gemm: b too short",
            Gemm::new(4, 3, 5).transpose_b().ldb(7), (12, 30, 20);
        ldc_below_the_columns: "gemm: c: leading dimension 4 < 5 columns",
            Gemm::new(4, 3, 5).ldc(4), (12, 15, 20);
        c_missing_its_last_row: "gemm: c too short",
            Gemm::new(4, 3, 5).ldc(8), (12, 15, 28);
    }

    #[test]
    fn a_window_smaller_than_the_result_is_rejected_by_both_backends() {
        for kind in ["scalar", "simd"] {
            let caught = std::panic::catch_unwind(|| {
                let mut c = [0.0f32; 20];
                let mut window = Window::new(&mut c, 4, 4, 5);
                let spec = Gemm::new(4, 3, 5);
                backend_named(kind).gemm(spec, &[0.0; 12], &[0.0; 15], &mut window);
            });
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(
                message.contains("c window smaller than (4, 5)"),
                "{message}"
            );
        }
    }

    #[test]
    fn empty_dimensions_touch_only_what_beta_says() {
        // A (3, 4) window of NaN inside canaries, rows 6 apart.
        let fresh = || -> Vec<f32> {
            let nan_at = |i: usize| i / 6 < 3 && i % 6 < 4;
            (0..24)
                .map(|i| if nan_at(i) { f32::NAN } else { 9.0 })
                .collect()
        };
        for kind in ["scalar", "simd"] {
            let bk = backend_named(kind);
            for layout in 0..4 {
                let shaped = |m, k, n| {
                    let spec = Gemm::new(m, k, n);
                    let spec = if layout & 1 != 0 {
                        spec.transpose_a()
                    } else {
                        spec
                    };
                    let spec = if layout & 2 != 0 {
                        spec.transpose_b()
                    } else {
                        spec
                    };
                    spec.ldc(6)
                };
                // m = 0 and n = 0 are no-ops whatever beta says.
                for spec in [shaped(0, 2, 4), shaped(3, 2, 0)] {
                    let mut c = fresh();
                    gemm_serial(bk, spec, &[1.0; 8], &[1.0; 8], &mut c);
                    let same = c
                        .iter()
                        .zip(fresh())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "{kind} {spec:?} wrote to C");
                }
                // k = 0 is `C = beta * C` on the window and only there:
                // beta = 0 stores zeros over the NaN, beta = 1 leaves it.
                let mut c = fresh();
                gemm_serial(bk, shaped(3, 0, 4), &[], &[], &mut c);
                for (i, v) in c.iter().enumerate() {
                    let want = if i / 6 < 3 && i % 6 < 4 { 0.0 } else { 9.0 };
                    assert_eq!(v.to_bits(), f32::to_bits(want), "{kind} element {i}");
                }
                let mut c = fresh();
                gemm_serial(bk, shaped(3, 0, 4).beta(1.0), &[], &[], &mut c);
                assert!(c.iter().filter(|v| v.is_nan()).count() == 12 && c[4] == 9.0);
            }
        }
    }
}
