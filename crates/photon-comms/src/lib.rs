//! # photon-comms
//!
//! The communication substrate of Photon-RS, standing in for the paper's
//! `Link` module (§4) and its wall-time model (Appendix B.1):
//!
//! * a framed binary **wire format** with CRC32 integrity and optional
//!   lossless compression (byte-shuffle + zero run-length encoding — the
//!   "lossless compression techniques without pruning" Photon defaults to);
//! * typed **messages** between the aggregator and LLM clients (model
//!   broadcasts, pseudo-gradient updates, metrics);
//! * **secure aggregation** via cancelling pairwise masks
//!   (Bonawitz et al., simplified to the honest-but-curious case);
//! * the three **aggregation topologies** — parameter server, AllReduce,
//!   Ring-AllReduce — as (a) the paper's analytic communication-time model
//!   (Eqs. 2–7) and (b) real multi-threaded collective implementations used
//!   by the DDP baseline;
//! * the **wall-time model** combining local compute (Eq. 1) and
//!   communication into per-round and total times (Eqs. 5–6).
//!
//! ```
//! use photon_comms::{comm_time_seconds, Topology};
//! // 8 clients, 500 MB model, 10 Gbps (= 1250 MB/s): RAR beats PS.
//! let ps = comm_time_seconds(Topology::ParameterServer, 8, 500.0, 1250.0);
//! let rar = comm_time_seconds(Topology::RingAllReduce, 8, 500.0, 1250.0);
//! assert!(rar < ps);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod collective;
mod compress;
mod crc;
mod link;
mod message;
mod network;
mod secure;
mod topology;
mod transport;
mod walltime;
mod wire;

pub use collective::{ring_allreduce_group, RingWorker};
pub use compress::{compress_f32s, decompress_f32s};
pub use crc::crc32;
pub use link::{
    deliver, deliver_untraced, trace_delivery, DeliveryReport, LinkExhausted, RetransmitPolicy,
};
pub use message::{Message, SealedFrame, TrainMetrics, WireOpts};
pub use network::{
    AdaptiveDeadlineConfig, LinkOutcome, LinkProfile, NetworkConfig, NetworkModel, PartitionKind,
    PartitionSchedule, PartitionSpec,
};
pub use secure::{mask_update, SecureAggError};
pub use topology::{bytes_on_wire, comm_time_seconds, Topology};
pub use transport::{ChannelLink, Link, LinkError};
pub use walltime::{RoundTime, SimClock, WallTimeModel};
pub use wire::{
    crc_passes, decode_frame, decode_frame_flags, encode_frame, FrameFlags, FrameHeader, TraceCtx,
    VerifiedFrame, WireError, FRAME_HEADER_LEN, MAX_FRAME_BYTES, TRACE_CTX_LEN,
};
