//! `photon client`: one training participant as its own OS process.
//!
//! The client loop is a reconnect machine around a training loop:
//! connect with capped-exponential backoff, handshake (fresh join or
//! session resume by deterministic token), run every broadcast round
//! through [`client_round`] — the simulator's own client side — and
//! retain each un-acked result, sealed once, so it is re-sent after every
//! reconnect until the coordinator acknowledges it. The process trains in
//! one [`Workspace`] for its whole life, reconnects included, and receives
//! into one frame buffer and one parameter buffer; an acknowledged result
//! hands its frame back to the workspace, which seals the next result into
//! it, so a warm round allocates nothing model-sized. The round engine's
//! per-round dedup, and the coordinator's re-ack of rounds already
//! committed, make that re-delivery safe.
//!
//! Faults from the shared plan are injected at this layer: the client
//! faults (`crash`, `nan-update`, `sign-flip`, `scale`) inside
//! [`client_round`] exactly as in the simulator; `netcrash@rNcM` severs
//! the socket right after the result is sent (so the re-delivery after
//! resume races a possibly-delivered first copy — the double-apply hazard
//! the dedup exists for), and `nethang@rNcM` goes silent without closing
//! the socket, driving the coordinator's heartbeat-miss detection.

use crate::backoff::ReconnectBackoff;
use crate::plan::RunPlan;
use crate::tcp::TcpLink;
use crate::{run_trace_id, spawn_in_scope, NetError, Result};
use photon_comms::{Link, LinkError, Message, SealedFrame, WireOpts};
use photon_core::FaultEvent::{NetCrash, NetHang};
use photon_core::{
    build_client, client_round, ClientRoundOutcome, FaultPlan, LlmClient, Workspace,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Coordinator address, e.g. `127.0.0.1:7700`.
    pub addr: String,
    /// Interval between heartbeats while connected, in milliseconds.
    pub heartbeat_interval_ms: u64,
    /// Reconnect backoff base delay, in milliseconds.
    pub reconnect_base_ms: u64,
    /// Reconnect backoff cap, in milliseconds.
    pub reconnect_cap_ms: u64,
    /// Consecutive failed connection attempts before giving up.
    pub max_connect_attempts: u32,
    /// How long a `nethang` fault stays silent, in milliseconds.
    pub hang_ms: u64,
    /// Where to persist the session identity `(client id, token, last
    /// acked round)`. With a session file a client process that is
    /// killed outright and restarted resumes its old session instead of
    /// asking for a new id — the difference between riding out a crash
    /// and stealing a fresh admission slot.
    pub session_file: Option<PathBuf>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            addr: "127.0.0.1:7700".into(),
            heartbeat_interval_ms: 100,
            reconnect_base_ms: 50,
            reconnect_cap_ms: 2_000,
            max_connect_attempts: 120,
            hang_ms: 1_500,
            session_file: None,
        }
    }
}

/// What a completed [`run_client`] did.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// The id the coordinator granted.
    pub client_id: u32,
    /// Rounds this process trained locally.
    pub rounds_trained: u64,
    /// Reconnections after the initial connect.
    pub reconnects: u64,
    /// Reconnections that resumed the existing session.
    pub resumed_sessions: u64,
    /// True when the run ended with a coordinator `Shutdown` (rather
    /// than the reconnect budget running out after the run was over).
    pub clean_shutdown: bool,
}

/// Handshake-time wire options: no float payloads move before the plan
/// is known, so the conservative encoding (no compression, f32) is
/// always safe.
fn handshake_wire() -> WireOpts {
    WireOpts {
        compress: false,
        dtype: Default::default(),
    }
}

/// Session identity carried across reconnects (and, via the session
/// file, across process restarts).
struct Identity {
    client_id: u32,
    token: u64,
    last_acked: Option<u64>,
}

impl Identity {
    /// Serialized form: three whitespace-separated integers, with
    /// `u64::MAX` standing in for "nothing acked yet".
    fn to_line(&self) -> String {
        format!(
            "{} {} {}\n",
            self.client_id,
            self.token,
            self.last_acked.unwrap_or(u64::MAX)
        )
    }

    fn parse(text: &str) -> Option<Identity> {
        let mut parts = text.split_whitespace();
        let client_id: u32 = parts.next()?.parse().ok()?;
        let token: u64 = parts.next()?.parse().ok()?;
        let acked: u64 = parts.next()?.parse().ok()?;
        Some(Identity {
            client_id,
            token,
            last_acked: (acked != u64::MAX).then_some(acked),
        })
    }
}

/// Loads the persisted identity, if a session file is configured and
/// holds one.
fn load_identity(opts: &ClientOptions) -> Option<Identity> {
    let path = opts.session_file.as_ref()?;
    Identity::parse(&std::fs::read_to_string(path).ok()?)
}

/// Persists `identity` if a session file is configured. Best-effort: a
/// failed write costs crash-resumability, not correctness.
fn store_identity(opts: &ClientOptions, identity: &Identity) {
    if let Some(path) = &opts.session_file {
        let _ = photon_trace::atomic_write(path, &identity.to_line());
    }
}

/// Runs the client until the coordinator shuts the run down.
///
/// # Errors
/// [`NetError::Unreachable`] when the reconnect budget is exhausted
/// before any shutdown was seen; protocol and training errors otherwise.
pub fn run_client(opts: &ClientOptions) -> Result<ClientReport> {
    let mut backoff = ReconnectBackoff::new(opts.reconnect_base_ms, opts.reconnect_cap_ms);
    let mut identity: Option<Identity> = load_identity(opts);
    let mut retained: Option<(u64, SealedFrame)> = None;
    let mut plan: Option<RunPlan> = None;
    let mut injector: Option<FaultPlan> = None;
    let mut llm: Option<LlmClient> = None;
    // Kept for the process's life, reconnects included: the training
    // state, the received frame and the decoded broadcast (the sealed
    // result's buffer goes back into the workspace once it is acked).
    let mut workspace = Workspace::new();
    let mut inbox = Inbox::default();
    let mut report = ClientReport {
        client_id: u32::MAX,
        rounds_trained: 0,
        reconnects: 0,
        resumed_sessions: 0,
        clean_shutdown: false,
    };

    loop {
        // --- connect with backoff -------------------------------------
        let link = loop {
            match TcpLink::connect(&opts.addr) {
                Ok(link) => break Arc::new(link),
                Err(e) => {
                    if backoff.attempts() >= opts.max_connect_attempts {
                        return Err(NetError::Unreachable(format!(
                            "coordinator at {} unreachable after {} attempts: {e}",
                            opts.addr,
                            backoff.attempts()
                        )));
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        };

        // --- handshake: fresh join or resume --------------------------
        let (hello_id, hello_token, hello_acked) = match &identity {
            Some(id) => (id.client_id, id.token, id.last_acked.unwrap_or(u64::MAX)),
            None => (u32::MAX, 0, u64::MAX),
        };
        let hello = Message::SessionHello {
            client_id: hello_id,
            token: hello_token,
            last_acked_round: hello_acked,
        };
        let hello_sent_us = photon_trace::now_us();
        // Traced once this recorder has a trace scope: on a reconnect, not
        // on a first connection, whose scope comes with the grant.
        if link.send(&hello, handshake_wire()).is_err() {
            std::thread::sleep(backoff.next_delay());
            continue;
        }
        let grant = match link.recv(Duration::from_secs(5)) {
            Ok((
                Message::SessionGrant {
                    client_id,
                    token,
                    resumed,
                    ..
                },
                grant_ctx,
                _,
            )) => {
                if identity.is_some() {
                    report.reconnects += 1;
                    if resumed {
                        report.resumed_sessions += 1;
                    }
                }
                let id = Identity {
                    client_id,
                    token,
                    last_acked: identity.as_ref().and_then(|i| i.last_acked),
                };
                store_identity(opts, &id);
                identity = Some(id);
                report.client_id = client_id;
                backoff.reset();
                if photon_trace::enabled() {
                    photon_trace::set_actor(client_id + 1);
                    if let Some(ctx) = grant_ctx {
                        // The grant carried the coordinator's send
                        // timestamp: halve the hello->grant round trip to
                        // estimate our trace-clock offset from its clock.
                        let grant_recv_us = photon_trace::now_us();
                        let rtt = grant_recv_us.saturating_sub(hello_sent_us);
                        let offset = ctx.ts_us as i64 + (rtt / 2) as i64 - grant_recv_us as i64;
                        photon_trace::set_trace_scope(ctx.trace_id, client_id + 1);
                        photon_trace::set_clock_offset_us(offset);
                    }
                }
                client_id
            }
            _ => {
                // Refused or garbled: back off and retry (the coordinator
                // may still be restarting).
                if backoff.attempts() >= opts.max_connect_attempts {
                    return Err(NetError::Unreachable(format!(
                        "coordinator at {} refused the session handshake",
                        opts.addr
                    )));
                }
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        let me = grant;

        // --- per-connection heartbeat thread --------------------------
        let hb_stop = Arc::new(AtomicBool::new(false));
        let hb_hang = Arc::new(AtomicBool::new(false));
        let hb_handle = spawn_heartbeats(
            Arc::clone(&link),
            me,
            opts.heartbeat_interval_ms,
            Arc::clone(&hb_stop),
            Arc::clone(&hb_hang),
        );

        // Re-deliver the retained (un-acked) result from before the
        // reconnect; the coordinator's dedup makes this idempotent.
        if let Some((_, result)) = &retained {
            let _ = link.send_sealed(result);
        }

        // --- training loop for this connection ------------------------
        let outcome = connection_loop(
            &link,
            opts,
            me,
            &mut plan,
            &mut injector,
            &mut llm,
            &mut workspace,
            &mut inbox,
            &mut retained,
            &mut identity,
            &mut report,
            &hb_hang,
        );
        hb_stop.store(true, Ordering::SeqCst);
        link.sever();
        let _ = hb_handle.join();
        match outcome {
            ConnOutcome::Shutdown => {
                report.clean_shutdown = true;
                let _ = photon_trace::flush();
                return Ok(report);
            }
            ConnOutcome::Reconnect => {
                // Loop back around through the backoff + handshake.
            }
        }
    }
}

enum ConnOutcome {
    Shutdown,
    Reconnect,
}

/// What a client receives into, kept from frame to frame: the frame read
/// off the socket and the decoded broadcast's parameters.
#[derive(Default)]
struct Inbox {
    frame: Vec<u8>,
    params: Vec<f32>,
}

/// Drives one live connection until it drops or the run ends.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    link: &Arc<TcpLink>,
    opts: &ClientOptions,
    me: u32,
    plan: &mut Option<RunPlan>,
    injector: &mut Option<FaultPlan>,
    llm: &mut Option<LlmClient>,
    workspace: &mut Workspace,
    inbox: &mut Inbox,
    retained: &mut Option<(u64, SealedFrame)>,
    identity: &mut Option<Identity>,
    report: &mut ClientReport,
    hb_hang: &Arc<AtomicBool>,
) -> ConnOutcome {
    loop {
        let params = &mut inbox.params;
        let received = link.recv_into(Duration::from_millis(250), &mut inbox.frame, || {
            std::mem::take(params)
        });
        let msg = match received {
            Ok((msg, _, _)) => msg,
            Err(LinkError::TimedOut) => {
                if link.is_connected() {
                    continue;
                }
                return ConnOutcome::Reconnect;
            }
            Err(_) => return ConnOutcome::Reconnect,
        };
        match msg {
            Message::RunSync { config_json, .. } if plan.is_none() => {
                match RunPlan::from_json_bytes(&config_json) {
                    Ok(p) => {
                        *injector = p.fault_plan();
                        // Deterministic provisioning: this rebuilds the
                        // exact founding client for `me`, so a client
                        // process restarted from scratch trains
                        // bit-identically.
                        match build_client(&p.cfg, me, p.tokens_per_client) {
                            Ok(client) => *llm = Some(client),
                            Err(_) => return ConnOutcome::Reconnect,
                        }
                        if photon_trace::enabled() {
                            // Fallback scope for a grant that carried no
                            // trace context: the trace id is a pure
                            // function of the shared seed, so the lanes
                            // still join (the first declaration wins, so
                            // this is a no-op after a handshake-derived
                            // scope).
                            photon_trace::set_trace_scope(run_trace_id(p.cfg.seed), me + 1);
                        }
                        *plan = Some(p);
                    }
                    Err(_) => return ConnOutcome::Reconnect,
                }
            }
            Message::ModelBroadcast { round, params } => {
                // Kept where the next broadcast decodes into it.
                inbox.params = params;
                let params = &inbox.params;
                let (Some(p), Some(client)) = (plan.as_ref(), llm.as_mut()) else {
                    continue; // can't train before RunSync delivers the plan
                };
                // A re-broadcast of a round we already trained: re-send
                // the retained result instead of re-training.
                if let Some((r, result)) = retained {
                    if *r == round {
                        let _ = link.send_sealed(result);
                        continue;
                    }
                }
                if injector.as_ref().is_some_and(|i| i.has(NetHang, round, me)) {
                    // Go silent (heartbeats included) without closing the
                    // socket: the coordinator's miss detection must spot
                    // this and sever us.
                    hb_hang.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(opts.hang_ms));
                    hb_hang.store(false, Ordering::SeqCst);
                }
                let fault = injector.as_ref().and_then(|i| i.client_fault(round, me));
                let cohort = [me];
                let outcome =
                    client_round(client, workspace, Ok(params), round, &cohort, &p.cfg, fault);
                let result = match outcome {
                    ClientRoundOutcome::Sealed { frame, .. } => frame,
                    // A scheduled crash: this round's result never comes.
                    ClientRoundOutcome::Crash => continue,
                    ClientRoundOutcome::Error { message } => {
                        // Local compute is broken (a replica panicked);
                        // reconnecting would only re-fail. Bow out
                        // and let the coordinator's quorum absorb it.
                        eprintln!("client {me}: round {round} failed locally: {message}");
                        return ConnOutcome::Shutdown;
                    }
                };
                report.rounds_trained += 1;
                // Retain before sending, so a send that fails half-way
                // still re-delivers after the reconnect; the sends share
                // the one sealed frame (the delta is model-sized).
                let (_, result) = retained.insert((round, result));
                let send_res = link.send_sealed(result);
                if injector
                    .as_ref()
                    .is_some_and(|i| i.has(NetCrash, round, me))
                {
                    // Crash the transport right behind the result: the
                    // first copy may or may not have landed, and the
                    // post-resume re-delivery must not double-apply.
                    link.sever();
                    return ConnOutcome::Reconnect;
                }
                if send_res.is_err() {
                    return ConnOutcome::Reconnect;
                }
            }
            Message::ResultAck { round, .. } => {
                // Acked is durable: the frame is never re-sent, and the
                // next result is sealed into its buffer.
                if let Some((_, result)) = retained.take_if(|(r, _)| *r <= round) {
                    workspace.keep_result_frame(result);
                }
                if let Some(id) = identity.as_mut() {
                    let newer = id.last_acked.is_none_or(|r| round > r);
                    if newer {
                        id.last_acked = Some(round);
                        store_identity(opts, id);
                    }
                }
                // The round is durable on the coordinator; make its spans
                // durable in our shard too, so a kill between rounds loses
                // nothing that mattered.
                let _ = photon_trace::flush();
            }
            Message::Shutdown => return ConnOutcome::Shutdown,
            // Late grants, coordinator heartbeats and anything else on
            // the control plane are informational here.
            _ => {}
        }
    }
}

/// Heartbeat pump for one connection: a fixed cadence, pausable by the
/// `nethang` fault, stopping when the link dies or the loop asks.
fn spawn_heartbeats(
    link: Arc<TcpLink>,
    client_id: u32,
    interval_ms: u64,
    stop: Arc<AtomicBool>,
    hang: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    spawn_in_scope("photon-heartbeat", move || {
        photon_trace::set_actor(client_id + 1);
        let interval = Duration::from_millis(interval_ms.max(10));
        let mut seq = 0u64;
        while !stop.load(Ordering::SeqCst) && link.is_connected() {
            if !hang.load(Ordering::SeqCst) {
                let beat = Message::Heartbeat { client_id, seq };
                if link.send(&beat, handshake_wire()).is_err() {
                    return;
                }
                seq += 1;
            }
            std::thread::sleep(interval);
        }
    })
    .expect("spawn the heartbeat thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_line_roundtrips() {
        for acked in [None, Some(0), Some(17)] {
            let id = Identity {
                client_id: 3,
                token: 0xdead_beef_u64,
                last_acked: acked,
            };
            let back = Identity::parse(&id.to_line()).unwrap();
            assert_eq!(back.client_id, 3);
            assert_eq!(back.token, 0xdead_beef_u64);
            assert_eq!(back.last_acked, acked);
        }
        assert!(Identity::parse("").is_none());
        assert!(Identity::parse("1 two 3").is_none());
    }
}
