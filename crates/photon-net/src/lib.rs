//! # photon-net
//!
//! Multi-process deployment for Photon-RS: a framed TCP transport behind
//! the round engine's one transport seam ([`photon_core::Transport`]), a
//! member gate, and crash-tolerant session resumption — so one
//! `photon serve` aggregator and N `photon client` processes run a
//! federated pre-training run as separate OS processes that survive kills
//! on either side. There is one training driver: `serve` is
//! [`photon_core::run_training_over`] with the TCP transport, and a client
//! runs [`photon_core::client_round`], the simulator's own client side, so
//! the same seed and config end with the same parameters on either
//! transport.
//!
//! The crate is layered bottom-up:
//!
//! * [`frame_io`]: blocking read/write of the exact photon-comms wire
//!   frames (magic/version/flags/CRC32/length) over any `std::io` stream,
//!   with the hostile-length cap enforced *before* allocation;
//! * [`TcpLink`]: the socket-backed [`photon_comms::Link`];
//! * [`ReconnectBackoff`]: capped exponential backoff with deterministic
//!   jitter for client reconnect loops;
//! * [`session`]: deterministic session tokens and the coordinator-side
//!   session table — tokens are a pure function of `(run seed, client id)`
//!   so a restarted coordinator re-authenticates resuming clients without
//!   having persisted any session state;
//! * [`Coordinator`]: the member gate (`WaitingForMembers → Warmup →
//!   RoundStart → RoundEnd → Cooldown → Finished`): min-client gating,
//!   warmup and cooldown — the round itself is the engine's;
//! * [`serve`] / [`run_client`]: the two process entry points, wiring
//!   heartbeats, idempotent result re-delivery, client session resumption
//!   and coordinator crash-restart from the checkpoint.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod backoff;
mod client;
mod coordinator;
pub mod frame_io;
mod health;
mod plan;
mod server;
pub mod session;
mod tcp;
mod tracectx;

pub use backoff::ReconnectBackoff;
pub use client::{run_client, ClientOptions, ClientReport};
pub use coordinator::{CoordState, Coordinator};
pub use health::{spawn_health_server, HealthServer};
pub use plan::RunPlan;
pub use server::{serve, ServeOptions, ServeReport, COORDKILL_EXIT_CODE};
pub use session::{session_token, Admission, SessionError, SessionTable};
pub use tcp::TcpLink;
pub use tracectx::{init_trace_scope, run_trace_id};

/// Errors surfaced by the serve / client entry points.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket or filesystem failure.
    Io(std::io::Error),
    /// The transport delivered a malformed or unexpected frame.
    Protocol(String),
    /// The federation core rejected a configuration or a round.
    Core(photon_core::CoreError),
    /// A client exhausted its reconnect budget.
    Unreachable(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Core(e) => write!(f, "core error: {e}"),
            NetError::Unreachable(m) => write!(f, "peer unreachable: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<photon_core::CoreError> for NetError {
    fn from(e: photon_core::CoreError) -> NetError {
        NetError::Core(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
