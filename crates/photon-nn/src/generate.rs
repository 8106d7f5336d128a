//! Autoregressive text generation: greedy, temperature and top-k sampling.
//!
//! Used by the downstream-utility demos — a Photon-trained model should
//! emit text in the style of its training domains (and does; see the
//! `text_generation` example).

use crate::{Activations, Gpt};
use photon_tensor::SeedStream;

/// Decoding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Softmax temperature (0 = greedy argmax).
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 = no truncation).
    pub top_k: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            temperature: 0.8,
            top_k: 40,
        }
    }
}

impl SampleConfig {
    /// Greedy decoding.
    #[cfg(test)]
    fn greedy() -> Self {
        SampleConfig {
            temperature: 0.0,
            top_k: 0,
        }
    }
}

/// Generates `n_tokens` continuation tokens after `prompt`.
///
/// The context is truncated to the model's sequence length from the left
/// (sliding window) as generation proceeds.
///
/// # Panics
/// Panics if the prompt is empty or contains out-of-vocabulary ids.
pub fn generate(
    model: &Gpt,
    prompt: &[u32],
    n_tokens: usize,
    config: &SampleConfig,
    rng: &mut SeedStream,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let seq_len = model.config().seq_len;
    let v = model.config().vocab_size;
    let mut context: Vec<u32> = prompt.to_vec();
    let mut out = Vec::with_capacity(n_tokens);

    for _ in 0..n_tokens {
        let window_start = context.len().saturating_sub(seq_len);
        let window = &context[window_start..];
        let mut acts = Activations::new(model.config(), 1, window.len());
        model.forward(window, None, &mut acts);
        let logits = &acts.logits()[(window.len() - 1) * v..window.len() * v];
        let next = sample_from_logits(logits, config, rng);
        out.push(next);
        context.push(next);
    }
    out
}

fn sample_from_logits(logits: &[f32], config: &SampleConfig, rng: &mut SeedStream) -> u32 {
    if config.temperature <= 0.0 {
        return photon_tensor::ops::argmax(logits) as u32;
    }
    // Scale, optionally truncate to top-k, softmax, sample.
    let mut indexed: Vec<(usize, f32)> = logits
        .iter()
        .map(|&l| l / config.temperature)
        .enumerate()
        .collect();
    if config.top_k > 0 && config.top_k < indexed.len() {
        indexed.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite logits"));
        indexed.truncate(config.top_k);
    }
    let maxv = indexed
        .iter()
        .map(|&(_, l)| l)
        .fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f64> = indexed
        .iter()
        .map(|&(_, l)| ((l - maxv) as f64).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.next_f64() * total;
    for (&(idx, _), w) in indexed.iter().zip(&weights) {
        u -= w;
        if u <= 0.0 {
            return idx as u32;
        }
    }
    indexed.last().map(|&(i, _)| i as u32).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn tiny_model() -> Gpt {
        let cfg = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 19,
            seq_len: 8,
        };
        Gpt::new(cfg, &mut SeedStream::new(0))
    }

    #[test]
    fn generates_requested_count_in_vocab() {
        let model = tiny_model();
        let mut rng = SeedStream::new(1);
        let out = generate(&model, &[1, 2, 3], 20, &SampleConfig::default(), &mut rng);
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|&t| (t as usize) < 19));
    }

    #[test]
    fn greedy_is_deterministic() {
        let model = tiny_model();
        let cfg = SampleConfig::greedy();
        let a = generate(&model, &[4, 5], 10, &cfg, &mut SeedStream::new(1));
        let b = generate(&model, &[4, 5], 10, &cfg, &mut SeedStream::new(999));
        assert_eq!(a, b, "greedy decoding must ignore the rng");
    }

    #[test]
    fn sampling_is_seed_deterministic_but_varies_across_seeds() {
        let model = tiny_model();
        let cfg = SampleConfig {
            temperature: 1.2,
            top_k: 0,
        };
        let a = generate(&model, &[4], 24, &cfg, &mut SeedStream::new(7));
        let b = generate(&model, &[4], 24, &cfg, &mut SeedStream::new(7));
        assert_eq!(a, b);
        let c = generate(&model, &[4], 24, &cfg, &mut SeedStream::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn top_k_one_equals_greedy() {
        let model = tiny_model();
        let greedy = generate(
            &model,
            &[2, 3],
            12,
            &SampleConfig::greedy(),
            &mut SeedStream::new(1),
        );
        let topk1 = generate(
            &model,
            &[2, 3],
            12,
            &SampleConfig {
                temperature: 0.5,
                top_k: 1,
            },
            &mut SeedStream::new(2),
        );
        assert_eq!(greedy, topk1);
    }

    #[test]
    fn long_generation_slides_the_window() {
        // Generating far past seq_len must keep working (sliding context).
        let model = tiny_model();
        let out = generate(
            &model,
            &[1],
            40,
            &SampleConfig::greedy(),
            &mut SeedStream::new(1),
        );
        assert_eq!(out.len(), 40);
    }
}
