//! Replay: a full multi-step training run (forward, backward, SGD update)
//! must repeat itself bit for bit. Every backend computes the same bits
//! (the kernel-level bit equality is `photon-tensor`'s `backend_parity`
//! suite), so this one path stands for all of them.

use photon_nn::{Activations, Gpt, ModelConfig};
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
fn each_backend_replays_bit_identically() {
    let (loss_a, params_a) = train_steps(3);
    let (loss_b, params_b) = train_steps(3);
    assert_eq!(loss_a, loss_b, "losses not reproducible");
    assert_eq!(params_a, params_b, "params not reproducible");
}
