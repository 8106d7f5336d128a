//! # photon-fedopt
//!
//! Federated optimization for Photon-RS: pseudo-gradient aggregation and
//! the server-side optimizer family used in the paper —
//!
//! * **FedAvg** (server lr 1.0, no momentum): Photon's default (Appendix A);
//! * **FedMom / FedAvgM**: server momentum on the pseudo-gradient;
//! * **FedAdam**: adaptive server optimizer (Reddi et al.), an extension
//!   hook the paper's §6 suggests;
//! * **DiLoCo**: the baseline — SGD with Nesterov momentum as the outer
//!   optimizer (η_s tuned per Fig. 8, momentum 0.9).
//!
//! It also provides the client samplers of Algorithm 1: full participation,
//! uniform `K`-of-`P` sampling, and [`sample_live`], the round-keyed draw
//! from a live membership roster.
//!
//! The weighted mean of pseudo-gradients (Algorithm 1, L.8) is written
//! once: `(Σ w·Δ) / Σ w`, accumulated in f64 and divided at the end, which
//! is what a stream must do since it cannot normalise before it has seen
//! every weight. [`aggregate_deltas`] (the `Mean` rule, one pass over the
//! cohort split by columns over the compute pool, which a synchronous
//! shard tree also runs per shard) and [`StreamingMerge`] (one update at
//! a time, as they arrive) are both that fold.
//!
//! ```
//! use photon_fedopt::{aggregate_deltas, ClientUpdate};
//! let updates = vec![
//!     ClientUpdate::new(vec![1.0, 0.0], 1.0).unwrap(),
//!     ClientUpdate::new(vec![0.0, 1.0], 1.0).unwrap(),
//! ];
//! let avg = aggregate_deltas(&updates);
//! assert_eq!(avg, vec![0.5, 0.5]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod aggregate;
mod buffer;
mod guard;
mod robust;
mod sampler;
mod server;
mod ties;

pub use aggregate::{aggregate_deltas, alignment, AggregationKind, ClientUpdate};
pub use buffer::{
    staleness_factor, staleness_weights, BufferConfig, BufferedUpdate, CommitBatch, StreamPush,
    StreamingMerge, UpdateBuffer,
};
pub use guard::{GuardConfig, GuardDecision, GuardReport, UpdateGuard};
pub(crate) use robust::norm_clipped_aggregate;
pub use robust::{median_aggregate, trimmed_mean_aggregate};
pub use sampler::{sample_live, ClientSampler, FullParticipation, UniformSampler};
pub use server::{DiLoCo, FedAdam, FedAvg, FedMom, ServerOpt, ServerOptKind, ServerOptState};
pub(crate) use ties::{ties_aggregate, TiesConfig};
