use photon_nn::ModelConfig;
use serde::{Deserialize, Serialize};

/// The paper's evaluated model sizes, with their measured local
/// throughputs ν (batches/second, Appendix B.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperModel {
    /// 125M parameters.
    M125,
    /// 1.3B parameters.
    B1_3,
    /// 3B parameters.
    B3,
    /// 7B parameters.
    B7,
}

/// Whether the throughput figure refers to the federated client pipeline or
/// the centralized (fully data-parallel) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThroughputSetting {
    /// Federated client (one silo's local pipeline).
    Federated,
    /// Centralized distributed-data-parallel baseline.
    Centralized,
}

impl PaperModel {
    /// All evaluated sizes.
    pub fn all() -> [PaperModel; 4] {
        [
            PaperModel::M125,
            PaperModel::B1_3,
            PaperModel::B3,
            PaperModel::B7,
        ]
    }

    /// Table 1 / Table 2 label.
    pub fn label(&self) -> &'static str {
        match self {
            PaperModel::M125 => "125M",
            PaperModel::B1_3 => "1.3B",
            PaperModel::B3 => "3B",
            PaperModel::B7 => "7B",
        }
    }

    /// The corresponding Table 4 architecture.
    pub fn config(&self) -> ModelConfig {
        match self {
            PaperModel::M125 => ModelConfig::paper_125m(),
            PaperModel::B1_3 => ModelConfig::paper_1_3b(),
            PaperModel::B3 => ModelConfig::paper_3b(),
            PaperModel::B7 => ModelConfig::paper_7b(),
        }
    }

    /// Measured local throughput ν in batches/second (Appendix B.1):
    /// 125M: 2.0 (both); 1.3B: 0.147 fed / 0.839 cent; 3B: 0.144 / 0.395;
    /// 7B: 0.032 / 0.12.
    pub fn nu(&self, setting: ThroughputSetting) -> f64 {
        use ThroughputSetting::*;
        match (self, setting) {
            (PaperModel::M125, _) => 2.0,
            (PaperModel::B1_3, Federated) => 0.147,
            (PaperModel::B1_3, Centralized) => 0.839,
            (PaperModel::B3, Federated) => 0.144,
            (PaperModel::B3, Centralized) => 0.395,
            (PaperModel::B7, Federated) => 0.032,
            (PaperModel::B7, Centralized) => 0.12,
        }
    }

    /// Batch size used with ν (Table 5: local batch for federated, global
    /// batch for centralized).
    pub fn batch_size(&self, setting: ThroughputSetting) -> usize {
        use ThroughputSetting::*;
        match (self, setting) {
            (PaperModel::M125, Federated) => 32,
            (PaperModel::M125, Centralized) => 256,
            (PaperModel::B1_3, _) => 512,
            (PaperModel::B3, _) => 512,
            (PaperModel::B7, _) => 1024,
        }
    }

    /// Maximum learning rate (Table 5).
    pub fn max_lr(&self) -> f32 {
        match self {
            PaperModel::M125 => 6.0e-4,
            PaperModel::B1_3 => 2.0e-4,
            PaperModel::B3 => 1.6e-4,
            PaperModel::B7 => 1.2e-4,
        }
    }
}

impl std::fmt::Display for PaperModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tokens/second from a batches/second throughput.
pub fn tokens_per_second(config: &ModelConfig, batches_per_sec: f64, batch_size: usize) -> f64 {
    batches_per_sec * batch_size as f64 * config.seq_len as f64
}

/// Model FLOPs Utilization: achieved training FLOPs over peak hardware
/// FLOPs (Table 2's "Local MFU per device").
///
/// # Panics
/// Panics if `n_gpus` or `peak_tflops` is zero.
pub fn mfu(config: &ModelConfig, tokens_per_sec: f64, n_gpus: usize, peak_tflops: f64) -> f64 {
    assert!(n_gpus > 0 && peak_tflops > 0.0, "invalid hardware spec");
    let achieved = config.flops_per_token() * tokens_per_sec;
    achieved / (n_gpus as f64 * peak_tflops * 1e12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuSpec;

    #[test]
    fn nu_values_match_appendix_b1() {
        assert_eq!(PaperModel::M125.nu(ThroughputSetting::Federated), 2.0);
        assert_eq!(PaperModel::B1_3.nu(ThroughputSetting::Centralized), 0.839);
        assert_eq!(PaperModel::B7.nu(ThroughputSetting::Federated), 0.032);
    }

    #[test]
    fn mfu_in_plausible_range_for_paper_models() {
        // Fed-1.3B: ν = 0.147 batches/s of 512×2048 tokens on 8 H100s.
        let cfg = PaperModel::B1_3.config();
        let tps = tokens_per_second(&cfg, 0.147, 512);
        let u = mfu(&cfg, tps, 8, GpuSpec::h100().peak_tflops_bf16);
        assert!(u > 0.1 && u < 1.5, "mfu={u}");
    }

    #[test]
    fn mfu_scales_inversely_with_gpu_count() {
        let cfg = PaperModel::M125.config();
        let tps = tokens_per_second(&cfg, 2.0, 32);
        let one = mfu(&cfg, tps, 1, 989.0);
        let two = mfu(&cfg, tps, 2, 989.0);
        assert!((one - 2.0 * two).abs() < 1e-12);
    }

    #[test]
    fn labels_and_configs_align() {
        for m in PaperModel::all() {
            assert!(!m.label().is_empty());
            m.config().validate();
            assert!(m.max_lr() > 0.0);
        }
        // Larger models get smaller peak learning rates (Table 5).
        assert!(PaperModel::M125.max_lr() > PaperModel::B7.max_lr());
    }
}
