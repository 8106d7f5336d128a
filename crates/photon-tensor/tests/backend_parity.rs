//! SIMD-vs-scalar parity properties for every kernel routed through the
//! `Backend` trait, plus bf16 conversion properties.
//!
//! The two backends are tolerance-equal, not bit-equal: the SIMD path
//! reassociates reductions and uses a polynomial `exp`. Each property
//! bounds the divergence by a mixed absolute/relative tolerance scaled to
//! the reduction length. On hosts without AVX2/FMA the parity properties
//! degenerate to scalar-vs-scalar and pass trivially — the suite still
//! runs, so `PHOTON_BACKEND=simd` CI jobs skip cleanly on such machines.

use photon_tensor::backend::{by_kind, BackendKind};
use photon_tensor::ops::{gemm_serial, Gemm};
use photon_tensor::{bf16_from_f32, bf16_to_f32, SeedStream};
use proptest::prelude::*;

/// Mixed absolute/relative closeness: |a-b| <= tol * max(1, |a|, |b|).
fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

fn randn(rng: &mut SeedStream, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.next_normal()).collect()
}

proptest! {
    /// All four GEMM layouts agree between backends, with a tolerance
    /// that grows with the reduction length k.
    #[test]
    fn gemm_layouts_match(
        m in 1usize..24, k in 1usize..48, n in 1usize..24,
        layout in 0u8..4,
        seed in any::<u64>(),
    ) {
        let scalar = by_kind(BackendKind::Scalar);
        let simd = by_kind(BackendKind::Simd);
        let mut rng = SeedStream::new(seed);
        let a = randn(&mut rng, m * k);
        let b = randn(&mut rng, k * n);
        let spec = match layout {
            0 => Gemm::new(m, k, n),
            1 => Gemm::new(m, k, n).transpose_a(),
            2 => Gemm::new(m, k, n).transpose_b(),
            _ => Gemm::new(m, k, n).transpose_a().transpose_b(),
        }
        .alpha(0.5)
        .beta(1.0);
        let mut c_s = vec![0.1; m * n];
        let mut c_v = vec![0.1; m * n];
        gemm_serial(scalar, spec, &a, &b, &mut c_s);
        gemm_serial(simd, spec, &a, &b, &mut c_v);
        let tol = 1e-5 * (k as f32).sqrt().max(1.0) * 8.0;
        for (s, v) in c_s.iter().zip(&c_v) {
            prop_assert!(close(*s, *v, tol), "{s} vs {v} (k={k})");
        }
    }

    /// dot / axpy / add agree between backends.
    #[test]
    fn vector_kernels_match(n in 1usize..300, seed in any::<u64>()) {
        let scalar = by_kind(BackendKind::Scalar);
        let simd = by_kind(BackendKind::Simd);
        let mut rng = SeedStream::new(seed);
        let x = randn(&mut rng, n);
        let y = randn(&mut rng, n);

        let tol = 1e-5 * (n as f32).sqrt().max(1.0) * 4.0;
        prop_assert!(close(scalar.dot(&x, &y), simd.dot(&x, &y), tol));

        let mut acc_s = y.clone();
        let mut acc_v = y.clone();
        scalar.axpy(0.75, &x, &mut acc_s);
        simd.axpy(0.75, &x, &mut acc_v);
        for (s, v) in acc_s.iter().zip(&acc_v) {
            prop_assert!(close(*s, *v, 1e-6));
        }

        let mut sum_s = vec![0.0; n];
        let mut sum_v = vec![0.0; n];
        scalar.add(&mut sum_s, &x, &y);
        simd.add(&mut sum_v, &x, &y);
        prop_assert_eq!(sum_s, sum_v); // elementwise add is exact
    }

    /// gelu forward/backward agree between backends (polynomial tanh in
    /// the SIMD path).
    #[test]
    fn gelu_matches(n in 1usize..200, seed in any::<u64>()) {
        let scalar = by_kind(BackendKind::Scalar);
        let simd = by_kind(BackendKind::Simd);
        let mut rng = SeedStream::new(seed);
        let x: Vec<f32> = (0..n).map(|_| rng.next_normal() * 4.0).collect();
        let dy = randn(&mut rng, n);

        let mut out_s = vec![0.0; n];
        let mut out_v = vec![0.0; n];
        scalar.gelu(&mut out_s, &x);
        simd.gelu(&mut out_v, &x);
        for (s, v) in out_s.iter().zip(&out_v) {
            prop_assert!(close(*s, *v, 1e-4));
        }

        let mut dx_s = vec![0.0; n];
        let mut dx_v = vec![0.0; n];
        scalar.gelu_grad(&mut dx_s, &x, &dy);
        simd.gelu_grad(&mut dx_v, &x, &dy);
        for (s, v) in dx_s.iter().zip(&dx_v) {
            prop_assert!(close(*s, *v, 1e-3));
        }
    }

    /// layernorm forward/backward agree between backends.
    #[test]
    fn layernorm_matches(c in 1usize..160, seed in any::<u64>()) {
        let scalar = by_kind(BackendKind::Scalar);
        let simd = by_kind(BackendKind::Simd);
        let mut rng = SeedStream::new(seed);
        let x = randn(&mut rng, c);
        let w: Vec<f32> = (0..c).map(|_| 1.0 + rng.next_normal() * 0.1).collect();
        let b = randn(&mut rng, c);
        let dy = randn(&mut rng, c);

        let mut out_s = vec![0.0; c];
        let mut out_v = vec![0.0; c];
        let (mean_s, rstd_s) = scalar.layernorm_row(&mut out_s, &x, &w, &b);
        let (mean_v, rstd_v) = simd.layernorm_row(&mut out_v, &x, &w, &b);
        prop_assert!(close(mean_s, mean_v, 1e-4));
        prop_assert!(close(rstd_s, rstd_v, 1e-3));
        for (s, v) in out_s.iter().zip(&out_v) {
            prop_assert!(close(*s, *v, 1e-3));
        }

        let mut dx_s = vec![0.0; c];
        let mut dx_v = vec![0.0; c];
        let mut dw_s = vec![0.0; c];
        let mut dw_v = vec![0.0; c];
        let mut db_s = vec![0.0; c];
        let mut db_v = vec![0.0; c];
        scalar.layernorm_grad_row(&mut dx_s, &mut dw_s, &mut db_s, &dy, &x, &w, mean_s, rstd_s);
        simd.layernorm_grad_row(&mut dx_v, &mut dw_v, &mut db_v, &dy, &x, &w, mean_v, rstd_v);
        for (s, v) in dx_s.iter().zip(&dx_v) {
            prop_assert!(close(*s, *v, 1e-3));
        }
        for (s, v) in dw_s.iter().zip(&dw_v).chain(db_s.iter().zip(&db_v)) {
            prop_assert!(close(*s, *v, 1e-3));
        }
    }

    /// softmax agrees between backends (polynomial exp in the SIMD path):
    /// close per-probability and both normalize to 1.
    #[test]
    fn softmax_matches(n in 1usize..200, scale in 0.1f32..8.0, seed in any::<u64>()) {
        let scalar = by_kind(BackendKind::Scalar);
        let simd = by_kind(BackendKind::Simd);
        let mut rng = SeedStream::new(seed);
        let logits: Vec<f32> = (0..n).map(|_| rng.next_normal() * scale).collect();
        let mut p_s = vec![0.0; n];
        let mut p_v = vec![0.0; n];
        scalar.softmax_row(&mut p_s, &logits);
        simd.softmax_row(&mut p_v, &logits);
        for (s, v) in p_s.iter().zip(&p_v) {
            prop_assert!((s - v).abs() < 1e-5, "{s} vs {v}");
        }
        let sum: f32 = p_v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// bf16 round-trip: finite values come back within 2^-8 relative
    /// error, non-finite values keep their class, signs survive.
    #[test]
    fn bf16_round_trip_bounded(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        let y = bf16_to_f32(bf16_from_f32(x));
        if x.is_nan() {
            prop_assert!(y.is_nan());
        } else if x.is_infinite() {
            prop_assert_eq!(x, y);
        } else {
            // RNE on an 8-bit significand: half-ULP relative bound, except
            // near the overflow boundary where rounding may carry to Inf,
            // and in the subnormal range where the error is absolute.
            if y.is_infinite() {
                prop_assert!(x.abs() > 3.3e38, "{x} overflowed to {y}");
            } else if x.abs() < f32::MIN_POSITIVE {
                prop_assert!((y - x).abs() <= f32::MIN_POSITIVE);
            } else {
                prop_assert!(
                    (y - x).abs() <= x.abs() / 256.0,
                    "{x} -> {y}"
                );
            }
            prop_assert!(
                y == 0.0 || y.is_sign_positive() == x.is_sign_positive()
            );
        }
    }

    /// bf16 encode/decode agrees with the reference semantics: decode is
    /// exact (a widening), and encoding an already-representable value is
    /// the identity.
    #[test]
    fn bf16_idempotent(bits in any::<u16>()) {
        let x = bf16_to_f32(bits);
        let re = bf16_from_f32(x);
        if x.is_nan() {
            prop_assert!(bf16_to_f32(re).is_nan());
        } else {
            prop_assert_eq!(re, bits);
        }
    }
}
