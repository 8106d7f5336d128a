//! End-to-end determinism of the pooled kernels: a full training step
//! (forward, backward, SGD update) must produce the same loss and weights
//! whether the kernels run serially or fan out across the worker pool.
//!
//! The kernels are designed so that the serial and parallel paths either
//! match bitwise (row-partitioned loops, two-phase attention) or reduce
//! partial sums in deterministic chunk order (split-k GEMM, layernorm and
//! bias gradients), so the tolerance here is far tighter than fp32 noise.
//!
//! Where the chunks of a batch execute is no part of that: at one chunk
//! budget, a step whose batches run inline on the caller (execution width
//! 1, a client lane on a full machine) matches one dispatched to the pool
//! bit for bit.

use photon_nn::{Activations, Gpt, ModelConfig};
use photon_tensor::ops::pool;
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

/// Wide enough that at two chunks every reducing kernel really splits:
/// the split-k weight-gradient GEMM, the layernorm and bias partials.
fn wide_cfg() -> ModelConfig {
    ModelConfig {
        n_layers: 1,
        d_model: 64,
        n_heads: 4,
        exp_ratio: 4,
        vocab_size: 31,
        seq_len: 64,
    }
}

/// Runs `steps` full training steps of batch `b` under `ctx` and returns
/// the per-step losses plus the final parameters.
fn train(ctx: pool::Context, cfg: ModelConfig, b: usize, steps: usize) -> (Vec<f32>, Vec<f32>) {
    ctx.enter(|| {
        let t = cfg.seq_len;
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
    })
}

#[test]
fn train_step_matches_across_thread_budgets() {
    let steps = 4;
    let budget = |chunks| pool::Context {
        chunks,
        ..pool::Context::current()
    };
    let (loss_serial, params_serial) = train(budget(1), cfg(), 2, steps);
    let (loss_par, params_par) = train(budget(4), cfg(), 2, steps);

    for (s, p) in loss_serial.iter().zip(&loss_par) {
        assert!(
            (s - p).abs() < 1e-5,
            "loss diverged across thread budgets: {s} vs {p}"
        );
    }
    assert!(
        loss_serial.last().unwrap() < loss_serial.first().unwrap(),
        "training failed to reduce loss: {loss_serial:?}"
    );
    let max_diff = params_serial
        .iter()
        .zip(&params_par)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 1e-5,
        "weights diverged across thread budgets: max |d| = {max_diff}"
    );
}

#[test]
fn train_step_is_bit_identical_inline_and_dispatched() {
    let at_width = |width| pool::Context {
        chunks: 2,
        width,
        ..pool::Context::current()
    };
    let inline = train(at_width(1), wide_cfg(), 8, 2);
    let dispatched = train(at_width(2), wide_cfg(), 8, 2);
    let bits = |(losses, params): &(Vec<f32>, Vec<f32>)| -> Vec<u32> {
        losses.iter().chain(params).map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&inline), bits(&dispatched));

    // The chunk budget, by contrast, is arithmetic: one chunk sums the same
    // partials in another order. Were this equal, the shape would be too
    // small to split and the comparison above would prove nothing.
    let one_chunk = pool::Context {
        chunks: 1,
        ..at_width(1)
    };
    assert_ne!(bits(&train(one_chunk, wide_cfg(), 8, 2)), bits(&inline));
}
