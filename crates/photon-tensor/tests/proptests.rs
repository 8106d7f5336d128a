//! Property-based tests for the tensor substrate.

use photon_tensor::{ops, SeedStream};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3f32).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    /// GEMM is linear in its left operand: (A1 + A2) B == A1 B + A2 B.
    #[test]
    fn gemm_left_linearity(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let a1: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
        let a2: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_normal()).collect();
        let a_sum: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();

        let mut c_sum = vec![0.0; m * n];
        ops::gemm(ops::Gemm::new(m, k, n), &a_sum, &b, &mut c_sum);

        let mut c1 = vec![0.0; m * n];
        ops::gemm(ops::Gemm::new(m, k, n), &a1, &b, &mut c1);
        let mut c2 = vec![0.0; m * n];
        ops::gemm(ops::Gemm::new(m, k, n), &a2, &b, &mut c2);
        ops::add_inplace(&mut c1, &c2);

        prop_assert!(ops::max_abs_diff(&c_sum, &c1) < 1e-3);
    }

    /// Transposed-operand GEMM agrees with plain GEMM on transposed buffers.
    #[test]
    fn gemm_transpose_consistency(
        m in 1usize..5, k in 1usize..5, n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_normal()).collect();
        // Physically transpose b into (n, k).
        let mut bt = vec![0.0; k * n];
        for i in 0..k {
            for j in 0..n {
                bt[j * k + i] = b[i * n + j];
            }
        }
        let mut c_plain = vec![0.0; m * n];
        ops::gemm(ops::Gemm::new(m, k, n), &a, &b, &mut c_plain);
        let mut c_t = vec![0.0; m * n];
        ops::gemm(ops::Gemm::new(m, k, n).transpose_b(), &a, &bt, &mut c_t);
        prop_assert!(ops::max_abs_diff(&c_plain, &c_t) < 1e-3);
    }

    /// axpy(a, x, y) then axpy(-a, x, y) restores y.
    #[test]
    fn axpy_inverse(
        xs in proptest::collection::vec(finite_f32(), 1..64),
        alpha in -10.0f32..10.0,
    ) {
        let ys: Vec<f32> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut out = ys.clone();
        ops::axpy(alpha, &xs, &mut out);
        ops::axpy(-alpha, &xs, &mut out);
        for (o, y) in out.iter().zip(&ys) {
            prop_assert!((o - y).abs() <= 1e-2 + y.abs() * 1e-4);
        }
    }

    /// The L2 norm is absolutely homogeneous: ||c x|| == |c| ||x||.
    #[test]
    fn l2_norm_homogeneous(
        xs in proptest::collection::vec(finite_f32(), 1..64),
        c in -5.0f32..5.0,
    ) {
        let scaled: Vec<f32> = xs.iter().map(|v| c * v).collect();
        let lhs = ops::l2_norm(&scaled);
        let rhs = c.abs() * ops::l2_norm(&xs);
        prop_assert!((lhs - rhs).abs() <= 1e-2 + rhs.abs() * 1e-4);
    }

    /// sample_indices always returns k sorted distinct indices below n.
    #[test]
    fn sample_indices_invariants(n in 1usize..100, seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let k = rng.next_below(n) + 1;
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// The pooled GEMM agrees with the serial reference for every transpose
    /// variant, arbitrary alpha/beta, ragged shapes, and 1..=8 threads. The
    /// split-k path (trans_a without trans_b) reduces partial products in
    /// deterministic chunk order, so only rounding-level drift is allowed.
    #[test]
    fn par_gemm_matches_serial_all_variants(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        trans_a in any::<bool>(),
        trans_b in any::<bool>(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_normal()).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.next_normal()).collect();

        let mut spec = ops::Gemm::new(m, k, n).alpha(alpha).beta(beta);
        if trans_a {
            spec = spec.transpose_a();
        }
        if trans_b {
            spec = spec.transpose_b();
        }

        let mut serial = c0.clone();
        ops::gemm(spec, &a, &b, &mut serial);
        let mut par = c0.clone();
        ops::par_gemm(spec, &a, &b, &mut par, threads);
        prop_assert!(
            ops::max_abs_diff(&serial, &par) < 1e-3,
            "variant (ta={}, tb={}) diverged at {} threads", trans_a, trans_b, threads
        );

        // gemm_auto under an explicit budget must take the same path.
        let mut auto = c0.clone();
        ops::pool::with_parallelism(threads, || {
            ops::gemm_auto(spec, &a, &b, &mut auto);
        });
        prop_assert!(ops::max_abs_diff(&serial, &auto) < 1e-3);
    }

    /// Where a batch executes never shows in what it leaves behind: for any
    /// chunking, running the tasks inline on the caller (execution width 1)
    /// and dispatching them to the pool write identical buffers.
    #[test]
    fn run_tasks_inline_matches_dispatched(
        rows in 1usize..40,
        row_len in 1usize..9,
        parts in 1usize..9,
        width in 2usize..9,
        seed in any::<u64>(),
    ) {
        use ops::pool;
        let mut rng = SeedStream::new(seed);
        let input: Vec<f32> = (0..rows * row_len).map(|_| rng.next_normal()).collect();
        let fill = |width: usize| {
            let mut out = vec![0.0f32; rows * row_len];
            let ranges = pool::chunk_ranges(rows, parts);
            let tasks: Vec<pool::Task> = pool::split_rows(&mut out, row_len, &ranges)
                .into_iter()
                .zip(&ranges)
                .map(|(chunk, r)| {
                    let src = &input[r.start * row_len..r.end * row_len];
                    // A running sum makes each value depend on the order
                    // within its chunk, as a kernel's reduction would.
                    Box::new(move || {
                        let mut acc = r.start as f32;
                        for (o, x) in chunk.iter_mut().zip(src) {
                            acc += x;
                            *o = acc;
                        }
                    }) as pool::Task
                })
                .collect();
            pool::Context { width, ..pool::Context::current() }.enter(|| pool::run_tasks(tasks));
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        prop_assert_eq!(fill(1), fill(width));
    }
}

/// FNV-1a over the bit patterns of `values`.
fn digest(values: impl Iterator<Item = f32>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Dense GEMM results at the matmul shapes of the three benchmark models —
/// forward (`nt`, beta 0), input gradient (`nn`, beta 1) and weight gradient
/// (`tn`, beta 1) of every linear layer — must keep the bits recorded at the
/// commit before GEMM learned leading dimensions, less the last `n % 8`
/// columns: that commit summed them in a scalar tail, the one place where
/// the register tile's FMA chain was not used. The digests hold for every
/// tile: the portable one, and the active backend's (on an AVX-512 host the
/// 12x32 AVX-512F tile, on an AVX2-only host the 6x16 AVX2 tile, on aarch64
/// the NEON tile), so a seeded run replays byte-identically on any host.
#[test]
fn proxy_model_gemm_bits_are_pinned() {
    use photon_tensor::backend::{active, portable};
    // (name, d_model, batch * seq); mlp = 4 d, vocab = 257.
    let models = [
        ("proxy_tiny", 32, 128),
        ("proxy_small", 64, 512),
        ("proxy_large", 128, 64),
    ];
    let pinned: [(&str, u64); 3] = [
        ("proxy_tiny", 0xb1ea_22f9_dd19_7e0d),
        ("proxy_small", 0x86db_bed0_fb50_af86),
        ("proxy_large", 0xa0ee_00de_7dfa_f0aa),
    ];
    for (name, want) in pinned {
        for (path, bk) in [("portable", portable()), ("active", active())] {
            let &(_, d, bt) = models.iter().find(|m| m.0 == name).unwrap();
            let mut rng = SeedStream::new(0x6e6d);
            let mut got = 0u64;
            // (in features, out features) of qkv, attproj, fc, fcproj, lm head.
            for (ic, oc) in [(d, 3 * d), (d, d), (d, 4 * d), (4 * d, d), (d, 257)] {
                let specs = [
                    ops::Gemm::new(bt, ic, oc).transpose_b(),
                    ops::Gemm::new(bt, oc, ic).beta(1.0),
                    ops::Gemm::new(oc, bt, ic).transpose_a().beta(1.0),
                ];
                for spec in specs {
                    let a: Vec<f32> = (0..spec.m * spec.k).map(|_| rng.next_normal()).collect();
                    let b: Vec<f32> = (0..spec.k * spec.n).map(|_| rng.next_normal()).collect();
                    let mut c: Vec<f32> = (0..spec.m * spec.n).map(|_| rng.next_normal()).collect();
                    ops::gemm_serial(bk, spec, &a, &b, &mut c);
                    let kept = spec.n - spec.n % 8;
                    let rows = c
                        .chunks_exact(spec.n)
                        .flat_map(|row| row[..kept].iter().copied());
                    got = got.rotate_left(7) ^ digest(rows);
                }
            }
            assert_eq!(got, want, "{name} on the {path} path: computed {got:#018x}");
        }
    }
}

/// One strided GEMM problem: physical operands padded out to their leading
/// dimensions, `C` with a gap after every row and spare rows after the last.
struct Strided {
    spec: ops::Gemm,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

/// What every float of `C` outside the `(m, n)` window must still hold.
const CANARY: f32 = -7777.25;

impl Strided {
    #[allow(clippy::too_many_arguments)]
    fn new(
        (m, k, n): (usize, usize, usize),
        (trans_a, trans_b): (bool, bool),
        (pad_a, pad_b, pad_c): (usize, usize, usize),
        alpha: f32,
        beta: f32,
        seed: u64,
    ) -> Self {
        let mut rng = SeedStream::new(seed);
        let mut spec = ops::Gemm::new(m, k, n).alpha(alpha).beta(beta);
        if trans_a {
            spec = spec.transpose_a();
        }
        if trans_b {
            spec = spec.transpose_b();
        }
        let spec = spec
            .lda(spec.lda + pad_a)
            .ldb(spec.ldb + pad_b)
            .ldc(n + pad_c);
        let (a_rows, b_rows) = (if trans_a { k } else { m }, if trans_b { n } else { k });
        let a = (0..a_rows * spec.lda).map(|_| rng.next_normal()).collect();
        let b = (0..b_rows * spec.ldb).map(|_| rng.next_normal()).collect();
        // beta = 0 must overwrite whatever the window held, NaN included.
        let mut c = vec![CANARY; (m + 2) * spec.ldc];
        for row in c.chunks_exact_mut(spec.ldc).take(m) {
            for v in &mut row[..n] {
                *v = if beta == 0.0 {
                    f32::NAN
                } else {
                    rng.next_normal()
                };
            }
        }
        Strided { spec, a, b, c }
    }

    fn a_at(&self, i: usize, p: usize) -> f32 {
        let s = &self.spec;
        self.a[if s.trans_a {
            p * s.lda + i
        } else {
            i * s.lda + p
        }]
    }

    fn b_at(&self, p: usize, j: usize) -> f32 {
        let s = &self.spec;
        self.b[if s.trans_b {
            j * s.ldb + p
        } else {
            p * s.ldb + j
        }]
    }

    /// Every backend's result, bit for bit: `C` scaled by `beta` (zeroed
    /// for `beta = 0`), then per `KC`-block of the contraction one FMA chain
    /// from zero over ascending `p`, added to the element as `alpha * acc`
    /// in one more FMA.
    fn reference(&self) -> Vec<f32> {
        // The GEMM driver's `KC`.
        const KC: usize = 256;
        let s = &self.spec;
        let mut want = self.c.clone();
        for i in 0..s.m {
            for j in 0..s.n {
                let at = i * s.ldc + j;
                let mut c = match s.beta {
                    0.0 => 0.0,
                    1.0 => want[at],
                    beta => want[at] * beta,
                };
                for p0 in (0..s.k).step_by(KC) {
                    let acc = (p0..s.k.min(p0 + KC)).fold(0.0f32, |acc, p| {
                        self.a_at(i, p).mul_add(self.b_at(p, j), acc)
                    });
                    c = s.alpha.mul_add(acc, c);
                }
                want[at] = c;
            }
        }
        want
    }
}

proptest! {
    // Four layouts x three betas x the row, column and k-block edges: the
    // default 64 cases would leave most combinations unvisited.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every layout, edge and leading dimension of the one GEMM entry: both
    /// backends bit for bit against the `KC`-blocked FMA reference,
    /// `beta = 0` over NaN garbage, and nothing outside the `(m, n)` window
    /// of `C` touched.
    #[test]
    fn strided_gemm_matches_the_reference_and_stays_in_its_window(
        m in 1usize..20,
        k in prop_oneof![1usize..40, 250usize..262, 300usize..301, 513usize..514],
        n in prop_oneof![1usize..36, 47usize..50],
        layout in (any::<bool>(), any::<bool>()),
        pads in (0usize..4, 0usize..4, 0usize..4),
        alpha in 0usize..3,
        beta in 0usize..3,
        seed in any::<u64>(),
    ) {
        use photon_tensor::backend::{active, portable};
        let (alpha, beta) = ([1.0, 0.125, -0.7][alpha], [0.0, 1.0, 0.5][beta]);
        let problem = Strided::new((m, k, n), layout, pads, alpha, beta, seed);
        let (spec, want) = (problem.spec, problem.reference());
        for (path, bk) in [("portable", portable()), ("active", active())] {
            let mut c = problem.c.clone();
            ops::gemm_serial(bk, spec, &problem.a, &problem.b, &mut c);
            for (at, (&got, &want)) in c.iter().zip(&want).enumerate() {
                let inside = at / spec.ldc < m && at % spec.ldc < n;
                let want = if inside { want } else { CANARY };
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{path} {spec:?} at {at}: {got} vs {want}"
                );
            }
        }
    }
}
