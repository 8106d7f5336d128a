use serde::{Deserialize, Serialize};

/// Positional-information scheme for the transformer.
///
/// The paper's MPT models use ALiBi; the system "could train any LLM
/// architecture" (§5.1), which this crate demonstrates with a GPT-2-style
/// learned absolute position embedding variant. The scheme is a property
/// of the *weights* (learned positions add a `(seq, d)` parameter block),
/// so it lives on [`crate::Gpt`] rather than [`ModelConfig`], and
/// [`crate::Gpt::from_params`] infers it from the parameter count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PosEncoding {
    /// ALiBi attention biases (MPT default; no positional parameters).
    #[default]
    Alibi,
    /// GPT-2-style learned absolute position embeddings.
    Learned,
}

/// Architecture configuration for a decoder-only transformer.
///
/// Mirrors the paper's Table 4 columns: number of blocks, hidden dimension
/// `d`, attention heads, MLP expansion ratio, vocabulary size and sequence
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Hidden dimension `d`.
    pub d_model: usize,
    /// Number of attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// MLP expansion ratio (Table 4 uses 4 throughout).
    pub exp_ratio: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Training sequence length `l`.
    pub seq_len: usize,
}

impl ModelConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if `d_model` is not divisible by `n_heads` or any field is 0.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// [`ModelConfig::validate`]'s rules as a `Result`, for configs read
    /// from outside the process.
    ///
    /// # Errors
    /// Describes the first rule broken.
    pub fn check(&self) -> Result<(), String> {
        let positive = [
            ("n_layers", self.n_layers),
            ("n_heads", self.n_heads),
            ("exp_ratio", self.exp_ratio),
            ("seq_len", self.seq_len),
        ];
        if let Some((name, _)) = positive.iter().find(|(_, n)| *n == 0) {
            return Err(format!("{name} must be positive"));
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} not divisible by n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if self.vocab_size < 2 {
            return Err("vocab_size must exceed 1".into());
        }
        Ok(())
    }

    /// Hidden dimension of the MLP.
    pub fn mlp_dim(&self) -> usize {
        self.exp_ratio * self.d_model
    }

    /// Exact trainable parameter count (embeddings tied with the LM head).
    pub fn param_count(&self) -> usize {
        let c = self.d_model;
        let per_block = 2 * (2 * c)                      // ln1, ln2 (w + b)
            + (3 * c) * c + 3 * c                         // qkv
            + c * c + c                                   // attention projection
            + self.mlp_dim() * c + self.mlp_dim()         // fc
            + c * self.mlp_dim() + c; // fc projection
        self.vocab_size * c                               // tied wte / lm head
            + self.n_layers * per_block
            + 2 * c // final layernorm
    }

    /// Approximate training FLOPs per token: `6 N + 12 L d T`
    /// (PaLM-style accounting: 6 FLOPs per parameter per token plus the
    /// quadratic attention term).
    pub fn flops_per_token(&self) -> f64 {
        6.0 * self.param_count() as f64
            + 12.0 * (self.n_layers * self.d_model * self.seq_len) as f64
    }

    /// Parameter bytes at a given precision (2 for bf16, 4 for f32).
    pub fn param_bytes(&self, bytes_per_param: usize) -> usize {
        self.param_count() * bytes_per_param
    }

    // ----- Paper presets (Table 4; analytic use) -----

    /// 75M model (the DiLoCo comparison size).
    pub fn paper_75m() -> Self {
        ModelConfig {
            n_layers: 3,
            d_model: 896,
            n_heads: 16,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 1024,
        }
    }

    /// 125M model.
    pub fn paper_125m() -> Self {
        ModelConfig {
            n_layers: 12,
            d_model: 768,
            n_heads: 12,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 2048,
        }
    }

    /// 350M model.
    pub fn paper_350m() -> Self {
        ModelConfig {
            n_layers: 24,
            d_model: 1024,
            n_heads: 16,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 2048,
        }
    }

    /// 1.3B model.
    pub fn paper_1_3b() -> Self {
        ModelConfig {
            n_layers: 24,
            d_model: 2048,
            n_heads: 16,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 2048,
        }
    }

    /// 3B model.
    pub fn paper_3b() -> Self {
        ModelConfig {
            n_layers: 32,
            d_model: 2560,
            n_heads: 20,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 2048,
        }
    }

    /// 7B model.
    pub fn paper_7b() -> Self {
        ModelConfig {
            n_layers: 32,
            d_model: 4096,
            n_heads: 32,
            exp_ratio: 4,
            vocab_size: 50_368,
            seq_len: 2048,
        }
    }

    // ----- Proxy presets (CPU-trainable; convergence experiments) -----
    //
    // The proxy family preserves the paper's *relative* capacity ordering
    // (tiny < small < medium < large) so cross-size comparisons keep their
    // shape; EXPERIMENTS.md records which proxy stands in for which paper
    // size in each experiment.

    /// Smallest trainable proxy (~42k params) — unit tests, quick demos.
    pub fn proxy_tiny() -> Self {
        ModelConfig {
            n_layers: 2,
            d_model: 32,
            n_heads: 2,
            exp_ratio: 4,
            vocab_size: 257,
            seq_len: 32,
        }
    }

    /// Small proxy (~0.2M params) — stands in for the 125M model.
    pub fn proxy_small() -> Self {
        ModelConfig {
            n_layers: 4,
            d_model: 64,
            n_heads: 4,
            exp_ratio: 4,
            vocab_size: 257,
            seq_len: 64,
        }
    }

    /// Medium proxy (~0.6M params) — stands in for the 1.3B model.
    pub fn proxy_medium() -> Self {
        ModelConfig {
            n_layers: 6,
            d_model: 96,
            n_heads: 6,
            exp_ratio: 4,
            vocab_size: 257,
            seq_len: 64,
        }
    }

    /// Large proxy (~1.4M params) — stands in for the 3B/7B models.
    pub fn proxy_large() -> Self {
        ModelConfig {
            n_layers: 8,
            d_model: 128,
            n_heads: 8,
            exp_ratio: 4,
            vocab_size: 257,
            seq_len: 64,
        }
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gpt(L={}, d={}, H={}, R={}, V={}, T={})",
            self.n_layers,
            self.d_model,
            self.n_heads,
            self.exp_ratio,
            self.vocab_size,
            self.seq_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_param_counts_are_in_the_advertised_ballpark() {
        // Tied-embedding counts come out slightly below the nominal labels
        // (which include untied heads / buffers); accept a 0.7x–1.3x band.
        let cases = [
            (ModelConfig::paper_125m(), 125e6),
            (ModelConfig::paper_350m(), 350e6),
            (ModelConfig::paper_1_3b(), 1.3e9),
            (ModelConfig::paper_3b(), 3e9),
            (ModelConfig::paper_7b(), 7e9),
        ];
        for (cfg, nominal) in cases {
            cfg.validate();
            let n = cfg.param_count() as f64;
            assert!(
                n > 0.65 * nominal && n < 1.35 * nominal,
                "{cfg}: {n:.2e} vs nominal {nominal:.2e}"
            );
        }
    }

    #[test]
    fn proxy_ordering_is_monotone() {
        let sizes = [
            ModelConfig::proxy_tiny().param_count(),
            ModelConfig::proxy_small().param_count(),
            ModelConfig::proxy_medium().param_count(),
            ModelConfig::proxy_large().param_count(),
        ];
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn flops_accounting() {
        let cfg = ModelConfig::proxy_tiny();
        let expect = 6.0 * cfg.param_count() as f64 + 12.0 * (2 * 32 * 32) as f64;
        assert_eq!(cfg.flops_per_token(), expect);
        assert_eq!(cfg.param_bytes(2), cfg.param_count() * 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn invalid_heads_panics() {
        ModelConfig {
            n_layers: 1,
            d_model: 30,
            n_heads: 4,
            exp_ratio: 4,
            vocab_size: 10,
            seq_len: 8,
        }
        .validate();
    }

    #[test]
    fn display_format() {
        let s = ModelConfig::proxy_tiny().to_string();
        assert!(s.contains("L=2") && s.contains("d=32"));
    }
}
