use crate::Region;
use serde::{Deserialize, Serialize};

/// A hardware accelerator specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// On-device memory in GiB.
    pub vram_gib: f64,
    /// Peak dense BF16 tensor throughput in TFLOP/s.
    pub peak_tflops_bf16: f64,
}

impl GpuSpec {
    /// NVIDIA H100 SXM (the paper's accelerator).
    pub fn h100() -> Self {
        GpuSpec {
            name: "H100-SXM".to_string(),
            vram_gib: 80.0,
            peak_tflops_bf16: 989.0,
        }
    }

    /// NVIDIA A100 80GB.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100-80GB".to_string(),
            vram_gib: 80.0,
            peak_tflops_bf16: 312.0,
        }
    }

    /// A consumer GPU for the paper's "Collaboration via Commodity
    /// Hardware" scenario (§2.1).
    pub fn rtx4090() -> Self {
        GpuSpec {
            name: "RTX-4090".to_string(),
            vram_gib: 24.0,
            peak_tflops_bf16: 165.0,
        }
    }

    /// VRAM in bytes.
    pub fn vram_bytes(&self) -> usize {
        (self.vram_gib * 1024.0 * 1024.0 * 1024.0) as usize
    }
}

/// Physical link class between devices or servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Interconnect {
    /// NVLink / NVSwitch within a server (RDMA-class).
    NvLink,
    /// InfiniBand between servers at a given signalling rate.
    InfiniBand {
        /// Link speed in Gbps.
        gbps: f64,
    },
    /// Commodity Ethernet at a given rate.
    Ethernet {
        /// Link speed in Gbps.
        gbps: f64,
    },
}

impl Interconnect {
    /// Effective bandwidth in Gbps.
    pub fn gbps(&self) -> f64 {
        match *self {
            // NVLink 4: 900 GB/s aggregate = 7200 Gbps.
            Interconnect::NvLink => 7200.0,
            Interconnect::InfiniBand { gbps } | Interconnect::Ethernet { gbps } => gbps,
        }
    }

    /// Whether the link supports RDMA-class collective operations — the
    /// `HasRDMA` predicate of Algorithm 1 (L.16).
    pub(crate) fn has_rdma(&self) -> bool {
        match *self {
            Interconnect::NvLink | Interconnect::InfiniBand { .. } => true,
            // The paper treats >= 100 Gbps datacenter Ethernet (RoCE) as
            // adequate for standard distributed training (§2.4).
            Interconnect::Ethernet { gbps } => gbps >= 100.0,
        }
    }
}

/// One server: a set of identical GPUs joined by an intra-node link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// GPUs in this server (homogeneous).
    pub gpu: GpuSpec,
    /// Number of GPUs.
    pub n_gpus: usize,
    /// Link between GPUs in the server.
    pub intra_node: Interconnect,
}

impl NodeSpec {
    /// A standard NVLink server with `n_gpus` of the given model.
    pub fn nvlink(gpu: GpuSpec, n_gpus: usize) -> Self {
        NodeSpec {
            gpu,
            n_gpus,
            intra_node: Interconnect::NvLink,
        }
    }
}

/// One federation participant's compute silo: servers, their interconnect,
/// and the region that determines wide-area bandwidth (Table 1 rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiloSpec {
    /// Participant label.
    pub name: String,
    /// Servers in the silo.
    pub nodes: Vec<NodeSpec>,
    /// Link between servers in the silo.
    pub inter_node: Interconnect,
    /// Geographic region (drives Fig. 2 bandwidths).
    pub region: Region,
}

impl SiloSpec {
    /// A single-server silo with `n_gpus` GPUs over NVLink.
    pub fn single_node(
        name: impl Into<String>,
        n_gpus: usize,
        gpu: GpuSpec,
        region: Region,
    ) -> Self {
        SiloSpec {
            name: name.into(),
            nodes: vec![NodeSpec::nvlink(gpu, n_gpus)],
            inter_node: Interconnect::Ethernet { gbps: 10.0 },
            region,
        }
    }

    /// Total GPU count across nodes.
    pub fn total_gpus(&self) -> usize {
        self.nodes.iter().map(|n| n.n_gpus).sum()
    }

    /// The GPU spec of the first node (silos are homogeneous in the paper).
    ///
    /// # Panics
    /// Panics if the silo has no nodes.
    pub fn gpu(&self) -> &GpuSpec {
        &self.nodes.first().expect("silo has at least one node").gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_presets() {
        assert_eq!(GpuSpec::h100().vram_gib, 80.0);
        assert!(GpuSpec::h100().peak_tflops_bf16 > GpuSpec::a100().peak_tflops_bf16);
        assert_eq!(GpuSpec::rtx4090().vram_bytes(), 24 * 1024 * 1024 * 1024);
    }

    #[test]
    fn rdma_classification() {
        assert!(Interconnect::NvLink.has_rdma());
        assert!(Interconnect::InfiniBand { gbps: 400.0 }.has_rdma());
        assert!(Interconnect::Ethernet { gbps: 100.0 }.has_rdma());
        assert!(!Interconnect::Ethernet { gbps: 10.0 }.has_rdma());
        assert!(Interconnect::NvLink.gbps() > 1000.0);
    }

    #[test]
    fn silo_aggregates() {
        let silo = SiloSpec::single_node("utah-0", 8, GpuSpec::h100(), Region::Utah);
        assert_eq!(silo.total_gpus(), 8);
        assert_eq!(silo.gpu().name, "H100-SXM");
    }

    #[test]
    fn serde_roundtrip() {
        let silo = SiloSpec::single_node("x", 2, GpuSpec::a100(), Region::Texas);
        let json = serde_json::to_string(&silo).unwrap();
        let back: SiloSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, silo);
    }
}
