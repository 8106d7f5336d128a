//! Property-based tests for the tensor substrate.

use bytes::BytesMut;
use photon_tensor::{ops, read_tensor, write_tensor, SeedStream, Tensor};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3f32).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    /// Serialization is lossless for any finite tensor.
    #[test]
    fn tensor_serde_roundtrip(
        dims in proptest::collection::vec(1usize..6, 1..4),
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let t = Tensor::randn(dims, 1.0, &mut rng);
        let mut out = BytesMut::new();
        write_tensor(&mut out, &t);
        let back = read_tensor(&mut out.freeze()).unwrap();
        prop_assert_eq!(back, t);
    }

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
