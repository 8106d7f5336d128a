//! # photon-cluster
//!
//! A simulated hardware substrate standing in for the paper's multi-region
//! H100 deployment (Table 1 / Fig. 2). It provides:
//!
//! * GPU / node / silo specifications with VRAM and peak-FLOPs data;
//! * the five-region topology and inter-region bandwidth matrix of Fig. 2;
//! * a training-memory (VRAM) model and a DeepSpeed-AutoTuner-style batch
//!   size heuristic (§5.1);
//! * the §4 training-strategy selection heuristic (single-GPU / DDP / FSDP /
//!   sub-federation);
//! * throughput and Model-FLOPs-Utilization accounting with the paper's
//!   measured per-model throughputs ν (Appendix B.1).
//!
//! ```
//! use photon_cluster::{GpuSpec, SiloSpec, select_strategy, TrainingStrategy};
//! use photon_nn::ModelConfig;
//!
//! let silo = SiloSpec::single_node("lab", 1, GpuSpec::h100(), photon_cluster::Region::England);
//! let s = select_strategy(&ModelConfig::paper_125m(), &silo);
//! assert_eq!(s, TrainingStrategy::SingleGpu);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod autotune;
mod hardware;
mod regions;
mod strategy;
mod throughput;
mod vram;

pub use autotune::{autotune_batch, AutoTuneResult};
pub use hardware::{GpuSpec, Interconnect, NodeSpec, SiloSpec};
pub use regions::{paper_silos, Region, RegionGraph};
pub use strategy::{select_strategy, TrainingStrategy};
pub use throughput::{mfu, tokens_per_second, PaperModel, ThroughputSetting};
pub use vram::{training_bytes, MemoryBreakdown};
