//! Portable-vs-active bit equality for every kernel routed through the
//! `Backend` trait, plus bf16 conversion properties.
//!
//! The portable kernels compute the SIMD kernels' operation sequence, so
//! every output must carry the same bits — NaN aside, which must only land
//! in the same places (its payload is not part of the contract). Inputs
//! run from empty rows to 700 elements and, in `special` cases, mix in
//! infinities, values past the `exp` clamps and NaN. On a host without
//! AVX2/FMA `active()` is the portable backend and the properties hold
//! trivially.

use photon_tensor::backend::{active, portable};
use photon_tensor::ops::{gemm_serial, Gemm};
use photon_tensor::{bf16_from_f32, bf16_to_f32, SeedStream};
use proptest::prelude::*;

/// What a `special` input draws from about one element in eight.
const SPECIALS: [f32; 7] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    100.0,
    -100.0,
    3.0e38,
    -3.0e38,
    f32::NAN,
];

/// `n` normals times `scale`, with [`SPECIALS`] mixed in if `special`.
fn inputs(rng: &mut SeedStream, n: usize, scale: f32, special: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if special && rng.next_below(8) == 0 {
                SPECIALS[rng.next_below(SPECIALS.len())]
            } else {
                rng.next_normal() * scale
            }
        })
        .collect()
}

/// Equal bits, or NaN on both sides.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Fails with the first element whose bits differ.
fn check(what: &str, want: &[f32], got: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len());
    for (i, (&w, &g)) in want.iter().zip(got).enumerate() {
        prop_assert!(
            same(w, g),
            "{}[{}]: portable {} vs active {}",
            what,
            i,
            w,
            g
        );
    }
    Ok(())
}

/// One NaN logit at every position of rows up to five vectors long, and
/// of every causal prefix: where it lands depends on the order each lane
/// folds its maximum in, which random rows with several NaNs (whose
/// probabilities all come out zero) do not show.
#[test]
fn a_nan_logit_lands_alike_at_every_position() {
    let mut rng = SeedStream::new(11);
    for n in 1..=40 {
        let row = inputs(&mut rng, n, 3.0, false);
        for at in 0..n {
            let mut logits = row.clone();
            logits[at] = f32::NAN;
            let (mut p_p, mut p_a) = (vec![0.0; n], vec![0.0; n]);
            portable().softmax_row(&mut p_p, &logits);
            active().softmax_row(&mut p_a, &logits);
            check("softmax", &p_p, &p_a).unwrap_or_else(|e| panic!("n {n}, NaN at {at}: {e:?}"));
        }
    }
    let t = 20;
    let pre = inputs(&mut rng, t * t, 3.0, false);
    for at in (0..t * t).filter(|i| i % t <= i / t) {
        let mut pre_p = pre.clone();
        pre_p[at] = f32::NAN;
        let mut pre_a = pre_p.clone();
        let (mut att_p, mut att_a) = (vec![0.0; t * t], vec![0.0; t * t]);
        portable().causal_softmax(&mut att_p, &mut pre_p, t, 0.5, 0.25);
        active().causal_softmax(&mut att_a, &mut pre_a, t, 0.5, 0.25);
        check("causal att", &att_p, &att_a).unwrap_or_else(|e| panic!("NaN at {at}: {e:?}"));
    }
}

proptest! {
    /// All four GEMM layouts, within one `KC` block and past it.
    #[test]
    fn gemm_layouts_match(
        m in 1usize..24,
        k in prop_oneof![1usize..48, 250usize..262],
        n in 1usize..24,
        layout in 0u8..4,
        alpha in prop_oneof![Just(0.5f32), Just(-0.7)],
        beta in prop_oneof![Just(0.0f32), Just(1.0), Just(0.5)],
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let a = inputs(&mut rng, m * k, 1.0, special);
        let b = inputs(&mut rng, k * n, 1.0, special);
        let spec = match layout {
            0 => Gemm::new(m, k, n),
            1 => Gemm::new(m, k, n).transpose_a(),
            2 => Gemm::new(m, k, n).transpose_b(),
            _ => Gemm::new(m, k, n).transpose_a().transpose_b(),
        }
        .alpha(alpha)
        .beta(beta);
        let c = inputs(&mut rng, m * n, 1.0, special);
        let (mut c_p, mut c_a) = (c.clone(), c);
        gemm_serial(portable(), spec, &a, &b, &mut c_p);
        gemm_serial(active(), spec, &a, &b, &mut c_a);
        check("gemm", &c_p, &c_a)?;
    }

    /// dot / axpy / add.
    #[test]
    fn vector_kernels_match(n in 0usize..700, special in any::<bool>(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let x = inputs(&mut rng, n, 1.0, special);
        let y = inputs(&mut rng, n, 1.0, special);

        check("dot", &[portable().dot(&x, &y)], &[active().dot(&x, &y)])?;

        let (mut acc_p, mut acc_a) = (y.clone(), y.clone());
        portable().axpy(0.75, &x, &mut acc_p);
        active().axpy(0.75, &x, &mut acc_a);
        check("axpy", &acc_p, &acc_a)?;

        let (mut sum_p, mut sum_a) = (vec![0.0; n], vec![0.0; n]);
        portable().add(&mut sum_p, &x, &y);
        active().add(&mut sum_a, &x, &y);
        check("add", &sum_p, &sum_a)?;
    }

    /// GELU forward and backward (polynomial `tanh` over whole vectors,
    /// libm's on the tail).
    #[test]
    fn gelu_matches(n in 0usize..700, special in any::<bool>(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let x = inputs(&mut rng, n, 4.0, special);
        let dy = inputs(&mut rng, n, 1.0, special);

        let (mut out_p, mut out_a) = (vec![0.0; n], vec![0.0; n]);
        portable().gelu(&mut out_p, &x);
        active().gelu(&mut out_a, &x);
        check("gelu", &out_p, &out_a)?;

        let (mut dx_p, mut dx_a) = (vec![0.0; n], vec![0.0; n]);
        portable().gelu_grad(&mut dx_p, &x, &dy);
        active().gelu_grad(&mut dx_a, &x, &dy);
        check("gelu_grad", &dx_p, &dx_a)?;
    }

    /// LayerNorm forward and backward, statistics included.
    #[test]
    fn layernorm_matches(c in 0usize..700, special in any::<bool>(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let x = inputs(&mut rng, c, 1.0, special);
        let w: Vec<f32> = (0..c).map(|_| 1.0 + rng.next_normal() * 0.1).collect();
        let b = inputs(&mut rng, c, 1.0, special);
        let dy = inputs(&mut rng, c, 1.0, special);

        let (mut out_p, mut out_a) = (vec![0.0; c], vec![0.0; c]);
        let (mean_p, rstd_p) = portable().layernorm_row(&mut out_p, &x, &w, &b);
        let (mean_a, rstd_a) = active().layernorm_row(&mut out_a, &x, &w, &b);
        check("layernorm stats", &[mean_p, rstd_p], &[mean_a, rstd_a])?;
        check("layernorm", &out_p, &out_a)?;

        // Accumulating into non-zero gradients, from the same statistics.
        let dx = inputs(&mut rng, c, 1.0, false);
        let (mut dx_p, mut dw_p, mut db_p) = (dx.clone(), dx.clone(), dx.clone());
        let (mut dx_a, mut dw_a, mut db_a) = (dx.clone(), dx.clone(), dx);
        portable().layernorm_grad_row(&mut dx_p, &mut dw_p, &mut db_p, &dy, &x, &w, mean_p, rstd_p);
        active().layernorm_grad_row(&mut dx_a, &mut dw_a, &mut db_a, &dy, &x, &w, mean_p, rstd_p);
        check("layernorm dinp", &dx_p, &dx_a)?;
        check("layernorm dweight", &dw_p, &dw_a)?;
        check("layernorm dbias", &db_p, &db_a)?;
    }

    /// Softmax rows of every length, logits spread by `scale`.
    #[test]
    fn softmax_matches(
        n in 0usize..700,
        scale in 0.1f32..40.0,
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let logits = inputs(&mut rng, n, scale, special);
        let (mut p_p, mut p_a) = (vec![0.0; n], vec![0.0; n]);
        portable().softmax_row(&mut p_p, &logits);
        active().softmax_row(&mut p_a, &logits);
        check("softmax", &p_p, &p_a)?;
    }

    /// The attention softmax stage: the bias, the causal mask and the
    /// softmax of every prefix, over raw logits with garbage above the
    /// diagonal.
    #[test]
    fn causal_softmax_matches(
        t in 1usize..48,
        scale in 0.01f32..4.0,
        slope in prop_oneof![Just(0.0f32).boxed(), (0.0f32..1.0).boxed()],
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let pre = inputs(&mut rng, t * t, 8.0, special);
        let (mut pre_p, mut pre_a) = (pre.clone(), pre);
        let (mut att_p, mut att_a) = (vec![f32::NAN; t * t], vec![f32::NAN; t * t]);
        portable().causal_softmax(&mut att_p, &mut pre_p, t, scale, slope);
        active().causal_softmax(&mut att_a, &mut pre_a, t, scale, slope);
        check("causal preatt", &pre_p, &pre_a)?;
        check("causal att", &att_p, &att_a)?;
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
