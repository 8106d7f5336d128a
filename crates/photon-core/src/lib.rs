//! # photon-core
//!
//! The Photon system itself: the paper's Aggregator / LLM-Client / Data
//! Source architecture (§3), Algorithm 1's execution pipeline, and the
//! centralized + DDP baselines it is evaluated against (Algorithm 2).
//!
//! A federated run wires together every substrate crate:
//!
//! * clients train a [`photon_nn::Gpt`] with [`photon_optim`] on streams
//!   from their private [`DataSource`]s (`photon-data`), statelessly: every
//!   round starts from fresh optimizer moments (Appendix A);
//! * each sampled client runs on its own OS thread and talks to the
//!   aggregator through real `Link` frames (`photon-comms` wire format,
//!   optional compression and secure aggregation);
//! * the aggregator averages pseudo-gradients and applies a
//!   [`photon_fedopt::ServerOpt`] (FedAvg by default, DiLoCo as baseline);
//! * hardware-aware strategy selection (`photon-cluster`) decides between
//!   single-GPU, DDP (real threaded ring-allreduce) and sub-federation
//!   local pipelines;
//! * elastic membership ([`MembershipRegistry`]) is the one model of which
//!   clients are up: without it every client is always available.
//!
//! ```no_run
//! use photon_core::{Aggregator, FederationConfig};
//! use photon_nn::ModelConfig;
//!
//! let cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
//! let mut fed = photon_core::build_federation(&cfg, 5_000).unwrap();
//! let record = fed.aggregator.run_round(&mut fed.clients).unwrap();
//! println!("round 0 mean client loss: {}", record.mean_client_loss);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod aggregator;
mod centralized;
mod checkpoint;
mod client;
mod config;
mod datasource;
mod ddp;
mod error;
pub mod experiments;
mod faults;
mod hierarchy;
mod membership;
mod metrics;
mod recovery;
mod telemetry;

pub use aggregator::{
    build_client, build_federation, client_round, Aggregator, ClientReply, ClientRoundOutcome,
    Exchange, Federation, Transport,
};
pub use centralized::CentralizedTrainer;
pub use checkpoint::{
    checkpoint_exists, load_checkpoint, save_checkpoint, Checkpoint, ElasticState,
};
pub use client::{ClientOutcome, LlmClient};
pub use config::{CohortSpec, FederationConfig};
pub use datasource::DataSource;
pub use ddp::{ddp_train, DdpConfig, DdpReport, Workspace};
pub use error::CoreError;
pub use faults::{ClientFault, FaultEvent, FaultKind, FaultPlan, FaultSpec, Tally, TargetedFault};
pub use hierarchy::{HierarchyConfig, HierarchyState, ShardPartition, ShardTree};
pub use membership::{
    ChurnEvents, MemberPhase, MembershipConfig, MembershipRegistry, MembershipSnapshot,
};
pub use metrics::{RoundRecord, TrainingHistory, ROUND_RING};
pub use photon_comms::{
    AdaptiveDeadlineConfig, LinkProfile, NetworkConfig, PartitionKind, PartitionSchedule,
    PartitionSpec,
};
pub use recovery::{run_training, run_training_over, TrainingOptions, TrainingOutcome};
pub use telemetry::{
    ClientStats, FaultCounters, HealthSnapshot, HierarchyMetrics, Metric, MetricKind,
    MetricsSnapshot, NetworkMetrics, RoundSlot, Telemetry, TransportMetrics, METRIC_SCHEMA,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Test-only census of the OS threads this crate starts. Each spawn site
/// adds to a counter on the *spawning* thread, so a test reads what its
/// own thread started and sibling tests cannot disturb the count.
#[cfg(test)]
pub(crate) mod thread_census {
    use std::cell::Cell;

    thread_local! {
        static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn note_spawned(n: usize) {
        SPAWNED.with(|s| s.set(s.get() + n));
    }

    /// Threads the calling thread has started so far.
    pub(crate) fn spawned() -> usize {
        SPAWNED.with(Cell::get)
    }
}
