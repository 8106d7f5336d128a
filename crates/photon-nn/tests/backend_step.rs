//! Cross-backend convergence: a full multi-step training run (forward,
//! backward, SGD update) under the SIMD backend must track the scalar
//! reference within fp32 drift, and each backend must replay itself
//! bit-identically (the per-backend determinism contract).
//!
//! On hosts without AVX2/FMA the simd request falls back to scalar and
//! both runs are literally the same code path; the test then passes
//! trivially, which is the intended CI behavior on such machines.

use photon_nn::{Activations, Gpt, ModelConfig};
use photon_tensor::backend::{with_backend, BackendKind};
use photon_tensor::SeedStream;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: 2,
        d_model: 32,
        n_heads: 4,
        exp_ratio: 2,
        vocab_size: 31,
        seq_len: 16,
    }
}

/// Trains under `kind`, scoped to this call: the two tests of this binary
/// run concurrently and must not see each other's backend.
fn train(kind: BackendKind, steps: usize) -> (Vec<f32>, Vec<f32>) {
    with_backend(kind, || train_steps(steps))
}

fn train_steps(steps: usize) -> (Vec<f32>, Vec<f32>) {
    let cfg = cfg();
    let (b, t) = (2usize, cfg.seq_len);
    let mut rng = SeedStream::new(42);
    let mut model = Gpt::new(cfg, &mut rng);
    let mut acts = Activations::new(&cfg, b, t);
    let mut grads = model.grad_buffer();
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let tokens: Vec<u32> = (0..b * t)
            .map(|i| ((i * 7 + step * 13) % cfg.vocab_size) as u32)
            .collect();
        let targets: Vec<u32> = (0..b * t)
            .map(|i| ((i * 7 + step * 13 + 1) % cfg.vocab_size) as u32)
            .collect();
        grads.iter_mut().for_each(|g| *g = 0.0);
        let loss = model
            .forward(&tokens, Some(&targets), &mut acts)
            .expect("targets provided");
        losses.push(loss);
        model.backward(&tokens, &targets, &mut acts, &mut grads);
        for (p, g) in model.params_mut().iter_mut().zip(&grads) {
            *p -= 1e-2 * g;
        }
    }
    (losses, model.into_params())
}

#[test]
fn train_step_losses_match_across_backends() {
    let steps = 4;
    let (loss_scalar, params_scalar) = train(BackendKind::Scalar, steps);
    let (loss_simd, params_simd) = train(BackendKind::Simd, steps);

    for (i, (s, v)) in loss_scalar.iter().zip(&loss_simd).enumerate() {
        let rel = (s - v).abs() / s.abs().max(1e-6);
        assert!(rel < 1e-2, "step {i}: scalar loss {s} vs simd loss {v}");
    }
    // Parameter drift after a few SGD steps stays small in aggregate.
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (s, v) in params_scalar.iter().zip(&params_simd) {
        num += ((s - v) as f64).powi(2);
        den += (*s as f64).powi(2);
    }
    let rel = (num / den.max(1e-30)).sqrt();
    assert!(rel < 1e-2, "relative parameter drift {rel}");
}

#[test]
fn each_backend_replays_bit_identically() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let (loss_a, params_a) = train(kind, 3);
        let (loss_b, params_b) = train(kind, 3);
        assert_eq!(loss_a, loss_b, "{kind:?} losses not reproducible");
        assert_eq!(params_a, params_b, "{kind:?} params not reproducible");
    }
}
