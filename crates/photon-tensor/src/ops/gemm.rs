use super::pool;
use crate::backend::{self, Backend};

/// Specification for a general matrix multiply `C = alpha * op(A) op(B) + beta * C`.
///
/// The *logical* operand shapes are `op(A): (m, k)`, `op(B): (k, n)` and
/// `C: (m, n)`. When a transpose flag is set, the corresponding *physical*
/// buffer stores the transposed matrix, i.e. with `trans_a` the `a` slice is
/// laid out as `(k, m)` row-major.
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
        }
    }

    /// Marks the `a` buffer as physically transposed (`(k, m)` layout).
    pub fn transpose_a(mut self) -> Self {
        self.trans_a = true;
        self
    }

    /// Marks the `b` buffer as physically transposed (`(n, k)` layout).
    pub fn transpose_b(mut self) -> Self {
        self.trans_b = true;
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

    fn a_len(&self) -> usize {
        self.m * self.k
    }

    fn b_len(&self) -> usize {
        self.k * self.n
    }

    fn c_len(&self) -> usize {
        self.m * self.n
    }
}

/// Scales `c` by `beta` with the overwrite special case (`beta == 0` stores
/// zeros even over NaN/Inf garbage, matching BLAS semantics).
fn scale_beta(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
}

/// Problems below this many flops (`2 m k n`) run the strided `nt` kernel
/// directly: the `O(k n)` repack only pays for itself once the `O(m k n)`
/// kernel re-reads each B element at least a few times.
const PACK_MIN_FLOPS: usize = 1 << 16;

fn should_pack_b(spec: &Gemm) -> bool {
    spec.trans_b && !spec.trans_a && spec.m >= 8 && 2 * spec.m * spec.k * spec.n >= PACK_MIN_FLOPS
}

/// Packs physical `B: (n, k)` into a contiguous `(k, n)` row-major panel so
/// the `trans_b` layout runs through the streaming `nn` kernel (unit-stride
/// B rows) instead of column-strided dots.
fn pack_b(k: usize, n: usize, b: &[f32]) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    transpose_into(&mut packed, &b[..n * k], n, k, k);
    packed
}

/// Edge of the square tiles [`transpose_into`] walks: a tile reads
/// `TRANSPOSE_TILE` source rows and writes as many destination rows, so both
/// sides stay within a few cache lines whatever the matrix size.
const TRANSPOSE_TILE: usize = 8;

/// Writes the transpose of a `(rows, cols)` matrix into `dst` as a contiguous
/// `(cols, rows)` row-major block. Source row `i` starts at `src[i * stride]`,
/// so `src` may be a column window of a wider matrix (`stride >= cols`).
///
/// # Panics
/// Panics if `dst` is shorter than `rows * cols` or `src` does not hold the
/// last source row.
pub fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize, stride: usize) {
    let dst = &mut dst[..rows * cols];
    for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let i1 = (i0 + TRANSPOSE_TILE).min(rows);
        for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(cols);
            for i in i0..i1 {
                let src_row = &src[i * stride + j0..i * stride + j1];
                for (j, &v) in (j0..j1).zip(src_row) {
                    dst[j * rows + i] = v;
                }
            }
        }
    }
}

/// Runs a spec on the calling thread through one backend: applies `beta`,
/// then dispatches the accumulate kernel for the transpose layout. No
/// packing, no pool. This is the entry point for a kernel that fans out
/// itself and hands the backend it resolved on the submitting thread to its
/// tasks (a pool worker does not see a [`backend::with_backend`] scope).
///
/// # Panics
/// Panics if any slice is shorter than the spec requires.
pub fn gemm_serial(bk: &dyn Backend, spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (m, n) = (spec.m, spec.n);
    scale_beta(&mut c[..m * n], spec.beta);
    match (spec.trans_a, spec.trans_b) {
        (false, false) => bk.gemm_nn(spec, a, b, c),
        (false, true) => bk.gemm_nt(spec, a, b, c),
        (true, false) => bk.gemm_tn(spec, a, b, c),
        (true, true) => bk.gemm_tt_rows(spec, 0, m, a, b, c),
    }
}

/// Executes a [`Gemm`] spec on the calling thread through the active
/// [`crate::backend`] (scalar reference or SIMD register tiles). Large
/// `trans_b` problems are first repacked into a contiguous panel (see
/// [`pack_b`]). For the pool-parallel entry points use [`par_gemm`] or
/// [`gemm_auto`].
///
/// # Panics
/// Panics if any slice is shorter than the spec requires.
pub fn gemm(spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= spec.a_len(), "gemm: a too short");
    assert!(b.len() >= spec.b_len(), "gemm: b too short");
    assert!(c.len() >= spec.c_len(), "gemm: c too short");
    let bk = backend::active();
    if should_pack_b(&spec) {
        let packed = pack_b(spec.k, spec.n, b);
        let nn = Gemm {
            trans_b: false,
            ..spec
        };
        gemm_serial(bk, nn, a, &packed, c);
        return;
    }
    gemm_serial(bk, spec, a, b, c);
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
/// [`MIN_TASK_FLOPS`] of work (per-task overhead must amortize). A
/// `trans_b` panel is packed *once*, before splitting, so all row tasks
/// share it.
///
/// # Panics
/// Panics if any slice is shorter than the spec requires.
pub fn par_gemm(spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    assert!(a.len() >= spec.a_len(), "par_gemm: a too short");
    assert!(b.len() >= spec.b_len(), "par_gemm: b too short");
    assert!(c.len() >= spec.c_len(), "par_gemm: c too short");
    let threads = threads.max(1);
    let flops = 2 * spec.m * spec.k * spec.n;
    if threads == 1 || flops < PAR_THRESHOLD_FLOPS {
        gemm(spec, a, b, c);
        return;
    }
    let bk = backend::active();
    if spec.trans_a && !spec.trans_b {
        par_gemm_split_k(bk, spec, a, b, c, threads, flops);
        return;
    }

    // Pack the trans_b panel once so every row task shares it.
    let packed_storage;
    let (spec, b): (Gemm, &[f32]) = if should_pack_b(&spec) {
        packed_storage = pack_b(spec.k, spec.n, b);
        (
            Gemm {
                trans_b: false,
                ..spec
            },
            &packed_storage,
        )
    } else {
        (spec, b)
    };

    let (m, k, n) = (spec.m, spec.k, spec.n);
    let parts = threads.min(m).min((flops / MIN_TASK_FLOPS).max(1));
    if parts <= 1 {
        gemm_serial(bk, spec, a, b, c);
        return;
    }
    let ranges = pool::chunk_ranges(m, parts);
    let chunks = pool::split_rows(&mut c[..m * n], n, &ranges);
    let tasks: Vec<pool::Task> = chunks
        .into_iter()
        .zip(&ranges)
        .map(|(c_chunk, r)| {
            let r = r.clone();
            Box::new(move || {
                let sub = Gemm { m: r.len(), ..spec };
                if spec.trans_a {
                    // tt: the row window of A^T is column-strided, so the
                    // kernel indexes the full buffers absolutely.
                    scale_beta(c_chunk, spec.beta);
                    bk.gemm_tt_rows(spec, r.start, r.len(), a, b, c_chunk);
                } else {
                    gemm_serial(bk, sub, &a[r.start * k..r.end * k], b, c_chunk);
                }
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Split-k path for `trans_a` (physical `A: (k, m)`, `B: (k, n)`): each task
/// owns a disjoint `p`-range of the contraction and a private zeroed
/// `(m, n)` accumulator, so the hot loops are write-disjoint without locks.
/// The reduce runs on the caller in ascending chunk order — results depend
/// only on the chunk count, never on scheduling.
fn par_gemm_split_k(
    bk: &dyn Backend,
    spec: Gemm,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
    flops: usize,
) {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    let parts = threads.min(k).min((flops / MIN_TASK_FLOPS).max(1));
    if parts <= 1 {
        gemm_serial(bk, spec, a, b, c);
        return;
    }
    let ranges = pool::chunk_ranges(k, parts);
    let mut partials: Vec<Vec<f32>> = ranges.iter().map(|_| vec![0.0f32; m * n]).collect();
    let tasks: Vec<pool::Task> = partials
        .iter_mut()
        .zip(&ranges)
        .map(|(buf, r)| {
            let r = r.clone();
            Box::new(move || {
                let sub = Gemm {
                    k: r.len(),
                    beta: 0.0,
                    ..spec
                };
                gemm_serial(
                    bk,
                    sub,
                    &a[r.start * m..r.end * m],
                    &b[r.start * n..r.end * n],
                    buf,
                );
            }) as pool::Task
        })
        .collect();
    pool::run_tasks(tasks);

    let c = &mut c[..m * n];
    scale_beta(c, spec.beta);
    for buf in &partials {
        for (cv, &pv) in c.iter_mut().zip(buf) {
            *cv += pv;
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
        .arg("n", spec.n as u64)
        .arg("backend", backend::active_kind().id());
    photon_trace::counter_add(
        "kernel.gemm_flops",
        2 * (spec.m as u64) * (spec.k as u64) * (spec.n as u64),
    );
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
        // (32, 64, 48) crosses PACK_MIN_FLOPS so the packed trans_b path
        // gets correctness coverage alongside the small strided cases.
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
    fn transpose_into_handles_ragged_tiles_and_column_windows() {
        let mut rng = SeedStream::new(9);
        // Shapes on both sides of the tile edge; `stride > cols` reads a
        // column window of a wider matrix.
        for &(rows, cols, stride) in &[(1, 1, 1), (7, 3, 3), (8, 8, 8), (13, 17, 40), (64, 16, 192)]
        {
            let src = rand_vec(rows * stride, &mut rng);
            let mut dst = vec![f32::NAN; rows * cols];
            transpose_into(
                &mut dst,
                &src[..(rows - 1) * stride + cols],
                rows,
                cols,
                stride,
            );
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        dst[j * rows + i],
                        src[i * stride + j],
                        "{rows}x{cols} ({i},{j})"
                    );
                }
            }
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
}
