//! `photon serve`: the multi-process coordinator.
//!
//! One listener thread accepts TCP connections and handshakes sessions;
//! one reader thread per connection decodes frames and forwards them to
//! the single-threaded main loop, which owns the [`Aggregator`] and the
//! [`Coordinator`] state machine. Robustness invariants:
//!
//! * **Idempotent re-delivery** — every applied result is keyed by
//!   `(round, client)`; a retried frame for an already-applied or
//!   already-committed round is acknowledged but never re-applied, so a
//!   client that re-sends after a reconnect cannot double-count.
//! * **Ack-after-commit** — `ResultAck` is sent only once the round the
//!   result contributed to has committed (and, when a checkpoint
//!   directory is configured, been checkpointed), so "acked" always
//!   implies "durable" even across a coordinator kill.
//! * **Session resumption** — a reconnecting client re-authenticates by
//!   deterministic token and rejoins its in-flight round; the cohort it
//!   was broadcast into is unchanged and the model is re-sent to it.
//! * **Crash-restart** — with `resume`, the aggregator restores from the
//!   checkpoint, the state machine restarts at the checkpointed round
//!   behind the min-client gate, and every client that reconnects is
//!   re-synchronized via `RunSync`.

use crate::coordinator::{CoordState, Coordinator};
use crate::health::spawn_health_server;
use crate::plan::RunPlan;
use crate::session::SessionTable;
use crate::tcp::TcpLink;
use crate::tracectx::{init_trace_scope, recv_traced, run_trace_id, send_broadcast, send_traced};
use crate::{NetError, Result};
use photon_comms::{BroadcastFrame, Link, LinkError, Message, TrainMetrics, WireOpts};
use photon_core::{
    checkpoint_exists, load_checkpoint, Aggregator, FaultPlan, MetricsSnapshot, RoundRecord,
    Telemetry,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit code the coordinator process dies with on an injected
/// `coordkill` fault — distinguishable from a real crash in the chaos
/// suite.
pub const COORDKILL_EXIT_CODE: i32 = 41;

/// Consecutive heartbeat-timeout windows before a quiet connection is
/// severed (its session survives for a later resume).
const HEARTBEAT_STRIKES: u32 = 3;

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7700`.
    pub addr: String,
    /// The run plan broadcast to every admitted client.
    pub plan: RunPlan,
    /// Connections required before the first (or a resumed) round starts.
    pub min_clients: usize,
    /// Checkpoint directory; every committed round is checkpointed here
    /// and `resume` restores from it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore aggregator and state machine from `checkpoint_dir` when a
    /// checkpoint exists (coordinator crash-restart).
    pub resume: bool,
    /// Settle delay between the member gate opening and the first
    /// broadcast, in milliseconds.
    pub warmup_ms: u64,
    /// Grace window after the last commit before shutdown, in
    /// milliseconds.
    pub cooldown_ms: u64,
    /// Per-round result deadline in milliseconds; at the deadline the
    /// round commits with whatever arrived (partial-results path).
    pub round_timeout_ms: u64,
    /// A connection quiet for longer than this counts a heartbeat miss;
    /// [`HEARTBEAT_STRIKES`] consecutive misses sever it.
    pub heartbeat_timeout_ms: u64,
    /// Write a metrics JSON snapshot here after every commit and at
    /// shutdown.
    pub metrics_json: Option<PathBuf>,
    /// Crash-simulation hook: return (without broadcasting `Shutdown`)
    /// after this many commits in this process, exactly as if the
    /// coordinator died post-checkpoint. `None` runs to completion.
    pub stop_after_rounds: Option<u64>,
    /// Serve the live health endpoint (`GET /metrics` Prometheus text,
    /// `GET /health` JSON) on `127.0.0.1:<port>` for the lifetime of the
    /// run. 0 binds an ephemeral port; `None` disables the endpoint.
    pub health_port: Option<u16>,
}

/// What a completed [`serve`] run did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Rounds committed by this process.
    pub rounds_run: u64,
    /// The aggregator's round counter at shutdown.
    pub final_round: u64,
    /// Mean client loss per committed round, in order.
    pub round_losses: Vec<f64>,
    /// The checkpointed round this process restored from, if any.
    pub resumed_from: Option<u64>,
    /// Total session resumptions granted.
    pub session_resumes: u64,
}

/// Everything the accept/reader threads share with the main loop.
struct Registry {
    conns: Mutex<BTreeMap<u32, Arc<TcpLink>>>,
    sessions: Mutex<SessionTable>,
    /// Coordinator round/state mirrored for handshake-time `RunSync`.
    round: AtomicU64,
    state: AtomicU8,
    plan_json: Vec<u8>,
    wire: WireOpts,
    events: Sender<Event>,
    /// The aggregator's metrics store: the main loop writes the
    /// coordinator state and the per-client transport columns into it.
    telemetry: Telemetry,
}

enum Event {
    Frame {
        client: u32,
        msg: Message,
        frame_len: u64,
    },
    Connected {
        client: u32,
        resumed: bool,
    },
    Disconnected {
        client: u32,
        /// The connection that died. A resumed client may already have a
        /// newer link registered under the same id; eviction must only
        /// happen when this exact link is still the registered one.
        link: Arc<TcpLink>,
    },
}

/// Per-client liveness bookkeeping owned by the main loop.
struct Liveness {
    last_seen: Instant,
    strikes: u32,
}

/// Runs the coordinator until the state machine reaches `Finished` (or a
/// `coordkill` fault terminates the process after a commit).
///
/// # Errors
/// Configuration rejections, socket failures, and aggregation errors.
pub fn serve(opts: &ServeOptions) -> Result<ServeReport> {
    let plan = &opts.plan;
    if plan.cfg.secure_agg {
        return Err(NetError::Protocol(
            "multi-process serve does not support secure aggregation".into(),
        ));
    }
    if plan.cfg.membership.is_some() || plan.cfg.buffer.is_some() {
        return Err(NetError::Protocol(
            "multi-process serve manages membership itself; disable membership/buffer".into(),
        ));
    }

    if photon_trace::enabled() {
        // Actor 0 is the coordinator lane; the trace id is a pure
        // function of the seed, so clients derive the same one.
        init_trace_scope(run_trace_id(plan.cfg.seed), 0);
    }

    let mut agg = Aggregator::new(plan.cfg.clone())?;
    let mut resumed_from = None;
    let resume_dir = opts
        .checkpoint_dir
        .as_deref()
        .filter(|dir| opts.resume && checkpoint_exists(dir));
    if let Some(dir) = resume_dir {
        // A rejected checkpoint leaves `agg` at its fresh round 0.
        match load_checkpoint(dir).and_then(|ckpt| agg.restore(ckpt)) {
            Ok(()) => {
                agg.telemetry().count(|f| f.coordinator_restarts += 1);
                photon_trace::instant(
                    photon_trace::Phase::CoordRestart,
                    "coord_restart",
                    &[("round", agg.round())],
                );
                resumed_from = Some(agg.round());
            }
            Err(e) => eprintln!(
                "warning: checkpoint in {} is unusable ({e}); restarting from round 0",
                dir.display()
            ),
        }
    }

    let injector = plan
        .faults
        .as_ref()
        .map(|spec| spec.plan(plan.cfg.population, plan.rounds));

    let started = Instant::now();
    let now_ms = || started.elapsed().as_millis() as u64;
    let mut coord = Coordinator::new(
        opts.min_clients,
        plan.rounds,
        opts.warmup_ms,
        opts.cooldown_ms,
    );
    if let Some(round) = resumed_from {
        coord.restore(round, now_ms());
    }

    let (events_tx, events_rx) = channel();
    let registry = Arc::new(Registry {
        conns: Mutex::new(BTreeMap::new()),
        sessions: Mutex::new(if resumed_from.is_some() {
            SessionTable::new_restarted(plan.cfg.seed, plan.cfg.population as u32)
        } else {
            SessionTable::new(plan.cfg.seed, plan.cfg.population as u32)
        }),
        round: AtomicU64::new(agg.round()),
        state: AtomicU8::new(coord.state().discriminant()),
        plan_json: plan.to_json_bytes(),
        wire: plan.cfg.wire_opts(),
        events: events_tx,
        telemetry: agg.telemetry().clone(),
    });
    publish_coordinator(&registry, &coord);

    let health_server = match opts.health_port {
        Some(port) => Some(spawn_health_server(port, registry.telemetry.clone())?),
        None => None,
    };

    let listener = bind_with_retry(&opts.addr)?;
    let local_addr = listener.local_addr()?;
    let accepting = Arc::new(std::sync::atomic::AtomicBool::new(true));
    spawn_accept_loop(
        listener,
        Arc::clone(&registry),
        opts.heartbeat_timeout_ms,
        Arc::clone(&accepting),
    );

    let result = main_loop(
        opts,
        &mut agg,
        &mut coord,
        &registry,
        &events_rx,
        injector.as_ref(),
        resumed_from,
        &now_ms,
    );
    // Unblock and retire the accept thread so a restarted coordinator
    // can rebind the port.
    accepting.store(false, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(local_addr);
    if let Some(server) = health_server {
        server.shutdown();
    }
    let _ = photon_trace::flush();
    result
}

/// Binds the listen address, riding out lingering sockets from a
/// just-killed predecessor (the crash-restart path rebinds the same
/// port the dead coordinator held).
fn bind_with_retry(addr: &str) -> Result<TcpListener> {
    let mut last = None;
    for _ in 0..25 {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Err(NetError::Io(last.expect("retries imply an error")))
}

/// The accept thread: handshakes each connection and spawns its reader.
fn spawn_accept_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    hb_timeout_ms: u64,
    accepting: Arc<std::sync::atomic::AtomicBool>,
) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if !accepting.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                if let Ok(link) = TcpLink::from_stream(stream) {
                    handshake(Arc::new(link), &registry, hb_timeout_ms);
                }
            });
        }
    });
}

/// Admits (or resumes) one connection, installs it in the registry, and
/// spawns the per-connection reader thread.
fn handshake(link: Arc<TcpLink>, registry: &Registry, hb_timeout_ms: u64) {
    let hello = match link.recv_message(Duration::from_secs(5)) {
        Ok(Message::SessionHello {
            client_id, token, ..
        }) => (client_id, token),
        _ => return, // not a client of ours; drop the connection
    };
    let admission = match registry.sessions.lock().unwrap().admit(hello.0, hello.1) {
        Ok(admission) => admission,
        Err(_) => return, // bad token or full: refuse silently
    };
    let round = registry.round.load(Ordering::SeqCst);
    let state = registry.state.load(Ordering::SeqCst);
    let grant = Message::SessionGrant {
        client_id: admission.client_id,
        token: admission.token,
        round,
        resumed: admission.resumed,
    };
    let sync = Message::RunSync {
        round,
        state,
        config_json: registry.plan_json.clone(),
    };
    // The grant's trace context doubles as the clock-offset probe: the
    // client halves the hello->grant round trip against our send
    // timestamp to estimate its offset from the coordinator clock.
    if send_traced(link.as_ref(), &grant, registry.wire).is_err()
        || send_traced(link.as_ref(), &sync, registry.wire).is_err()
    {
        return;
    }
    let client = admission.client_id;
    {
        let mut conns = registry.conns.lock().unwrap();
        if let Some(old) = conns.insert(client, Arc::clone(&link)) {
            old.sever(); // a newer connection supersedes the old one
        }
    }
    let _ = registry.events.send(Event::Connected {
        client,
        resumed: admission.resumed,
    });
    spawn_reader(link, client, registry.events.clone(), hb_timeout_ms);
}

/// Per-connection reader: forwards decoded frames to the main loop until
/// the link dies.
fn spawn_reader(link: Arc<TcpLink>, client: u32, events: Sender<Event>, hb_timeout_ms: u64) {
    std::thread::spawn(move || {
        photon_trace::set_actor(0);
        let poll = Duration::from_millis(hb_timeout_ms.max(10));
        loop {
            match recv_traced(&link, poll) {
                Ok((msg, _, frame_len)) => {
                    let frame = Event::Frame {
                        client,
                        msg,
                        frame_len,
                    };
                    if events.send(frame).is_err() {
                        return;
                    }
                }
                Err(LinkError::TimedOut) => {
                    if !link.is_connected() {
                        break;
                    }
                }
                Err(_) => break, // dead link or undecodable frame: sever
            }
        }
        link.sever();
        let _ = events.send(Event::Disconnected { client, link });
    });
}

/// State of the round in flight.
struct InFlight {
    cohort: Vec<u32>,
    /// The round's model, encoded once at [`open_round`]: the cohort
    /// fan-out, a stalled round's re-broadcast and a resumed session's
    /// re-send all put these same bytes on the wire.
    broadcast: BroadcastFrame,
    pending: Vec<(u32, Vec<f32>, f64, TrainMetrics)>,
    wire_bytes: u64,
    deadline: Instant,
    /// When the round was broadcast — client result latency is measured
    /// from here, so it includes the model download and the local step.
    opened: Instant,
}

#[allow(clippy::too_many_arguments)]
fn main_loop(
    opts: &ServeOptions,
    agg: &mut Aggregator,
    coord: &mut Coordinator,
    registry: &Registry,
    events: &Receiver<Event>,
    injector: Option<&FaultPlan>,
    resumed_from: Option<u64>,
    now_ms: &dyn Fn() -> u64,
) -> Result<ServeReport> {
    let wire = registry.wire;
    let telemetry = &registry.telemetry;
    let hb_timeout = Duration::from_millis(opts.heartbeat_timeout_ms.max(1));
    let round_timeout = Duration::from_millis(opts.round_timeout_ms.max(1));
    // (round, client) keys of every applied result: the idempotency set
    // that makes re-delivery safe.
    let mut applied: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut liveness: BTreeMap<u32, Liveness> = BTreeMap::new();
    let mut in_flight: Option<InFlight> = None;
    let mut round_losses = Vec::new();
    let mut graceful = true;

    loop {
        let connected = registry.conns.lock().unwrap().len();
        if let Some((from, to)) = coord.tick(connected, now_ms()) {
            publish_coordinator(registry, coord);
            photon_trace::instant(
                photon_trace::Phase::Round,
                "coord_transition",
                &[
                    ("from", u64::from(from.discriminant())),
                    ("to", u64::from(to.discriminant())),
                ],
            );
            match to {
                CoordState::RoundStart => {
                    in_flight = Some(open_round(agg, registry, round_timeout));
                }
                CoordState::Finished => break,
                _ => {}
            }
        }

        match events.recv_timeout(Duration::from_millis(20)) {
            Ok(Event::Frame {
                client,
                msg,
                frame_len,
            }) => {
                if let Some(live) = liveness.get_mut(&client) {
                    live.last_seen = Instant::now();
                    live.strikes = 0;
                } else {
                    liveness.insert(
                        client,
                        Liveness {
                            last_seen: Instant::now(),
                            strikes: 0,
                        },
                    );
                }
                if let Message::ClientResult {
                    round,
                    client_id,
                    delta,
                    weight,
                    metrics,
                } = msg
                {
                    handle_result(
                        coord,
                        registry,
                        &mut applied,
                        in_flight.as_mut(),
                        client,
                        (round, client_id, delta, weight, metrics),
                        frame_len,
                        wire,
                    );
                }
            }
            Ok(Event::Connected { client, resumed }) => {
                liveness.insert(
                    client,
                    Liveness {
                        last_seen: Instant::now(),
                        strikes: 0,
                    },
                );
                telemetry.client(client, |row| {
                    row.connected = true;
                    row.reconnects += u64::from(resumed);
                });
                if resumed {
                    telemetry.count(|f| {
                        f.transport_reconnects += 1;
                        f.session_resumes += 1;
                    });
                    photon_trace::instant(
                        photon_trace::Phase::SessionResume,
                        "session_resume",
                        &[("client", u64::from(client))],
                    );
                    // Rejoin the in-flight round: re-send the model if
                    // this client's result is still outstanding.
                    if let Some(fl) = &in_flight {
                        let outstanding = fl.cohort.contains(&client)
                            && !applied.contains(&(coord.round(), client));
                        if outstanding {
                            send_broadcast_to(registry, client, &fl.broadcast);
                        }
                    }
                }
            }
            Ok(Event::Disconnected { client, link }) => {
                // A stale goodbye from a superseded connection must not
                // evict the resumed one that replaced it.
                let mut conns = registry.conns.lock().unwrap();
                let current = conns
                    .get(&client)
                    .is_some_and(|cur| Arc::ptr_eq(cur, &link));
                if current {
                    conns.remove(&client);
                    drop(conns);
                    liveness.remove(&client);
                    telemetry.client(client, |row| row.connected = false);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::Protocol("event channel closed".into()))
            }
        }

        // Heartbeat-miss accounting: one strike per quiet timeout window;
        // enough strikes sever the connection (the session survives).
        let mut to_sever = Vec::new();
        for (client, live) in liveness.iter_mut() {
            if live.last_seen.elapsed() >= hb_timeout {
                live.last_seen = Instant::now();
                live.strikes += 1;
                telemetry.count(|f| f.heartbeat_misses += 1);
                telemetry.client(*client, |row| row.heartbeat_misses += 1);
                if live.strikes >= HEARTBEAT_STRIKES {
                    to_sever.push(*client);
                }
            }
        }
        for client in to_sever {
            if let Some(link) = registry.conns.lock().unwrap().get(&client) {
                link.sever();
            }
        }

        // Commit check for the round in flight.
        let should_commit = in_flight.as_ref().is_some_and(|fl| {
            fl.pending.len() >= fl.cohort.len()
                || (Instant::now() >= fl.deadline && !fl.pending.is_empty())
        });
        let stalled = in_flight
            .as_ref()
            .is_some_and(|fl| Instant::now() >= fl.deadline && fl.pending.is_empty());
        if should_commit {
            let fl = in_flight.take().expect("checked above");
            let record = commit_round(opts, agg, coord, registry, fl, now_ms(), resumed_from)?;
            round_losses.push(f64::from(record.mean_client_loss));
            let committed_round = coord.round().saturating_sub(1);
            if injector.is_some_and(|i| i.coordkill_after(committed_round)) {
                // The injected coordinator kill: the checkpoint for this
                // commit is already on disk; die without any goodbye. The
                // flight recorder preserves the final round's spans.
                let _ = photon_trace::flush();
                let _ = photon_trace::flight_dump();
                std::process::exit(COORDKILL_EXIT_CODE);
            }
            if opts
                .stop_after_rounds
                .is_some_and(|n| coord.committed() >= n)
            {
                // In-process crash simulation: stop cold, no Shutdown.
                graceful = false;
                break;
            }
        } else if stalled {
            // Deadline passed with nothing collected (every cohort member
            // is mid-reconnect): re-broadcast and rearm rather than
            // committing an empty round.
            if let Some(fl) = in_flight.as_mut() {
                fl.deadline = Instant::now() + round_timeout;
                for &client in &fl.cohort {
                    if !applied.contains(&(coord.round(), client)) {
                        send_broadcast_to(registry, client, &fl.broadcast);
                    }
                }
            }
        }
    }

    // Finished: tell everyone to shut down and snapshot metrics. A
    // simulated crash skips the goodbye and slams every socket shut,
    // exactly like a real kill.
    let conns: Vec<Arc<TcpLink>> = registry.conns.lock().unwrap().values().cloned().collect();
    for link in conns {
        if graceful {
            let _ = send_traced(link.as_ref(), &Message::Shutdown, wire);
        } else {
            link.sever();
        }
    }
    write_metrics(opts, coord, registry, resumed_from);
    Ok(ServeReport {
        rounds_run: coord.committed(),
        final_round: agg.round(),
        round_losses,
        resumed_from,
        session_resumes: registry.sessions.lock().unwrap().total_resumes(),
    })
}

/// Opens a round: fixes the cohort to the currently-connected clients
/// and broadcasts the model, encoded once straight from the aggregator's
/// parameters.
fn open_round(agg: &Aggregator, registry: &Registry, round_timeout: Duration) -> InFlight {
    let cohort: Vec<u32> = registry.conns.lock().unwrap().keys().copied().collect();
    let broadcast = BroadcastFrame::new(agg.round(), agg.params(), registry.wire);
    for &client in &cohort {
        registry
            .telemetry
            .client(client, |row| row.last_round = agg.round());
        send_broadcast_to(registry, client, &broadcast);
    }
    InFlight {
        cohort,
        broadcast,
        pending: Vec::new(),
        wire_bytes: 0,
        deadline: Instant::now() + round_timeout,
        opened: Instant::now(),
    }
}

fn send_to(registry: &Registry, client: u32, msg: &Message, wire: WireOpts) {
    let link = registry.conns.lock().unwrap().get(&client).cloned();
    if let Some(link) = link {
        let _ = send_traced(link.as_ref(), msg, wire);
    }
}

fn send_broadcast_to(registry: &Registry, client: u32, broadcast: &BroadcastFrame) {
    let link = registry.conns.lock().unwrap().get(&client).cloned();
    if let Some(link) = link {
        let _ = send_broadcast(&link, broadcast);
    }
}

/// Routes one arriving `ClientResult`: apply-once semantics with
/// immediate re-acks for anything already durable.
#[allow(clippy::too_many_arguments)]
fn handle_result(
    coord: &Coordinator,
    registry: &Registry,
    applied: &mut BTreeSet<(u64, u32)>,
    in_flight: Option<&mut InFlight>,
    conn_client: u32,
    result: (u64, u32, Vec<f32>, f64, TrainMetrics),
    frame_len: u64,
    wire: WireOpts,
) {
    let (round, client_id, delta, weight, metrics) = result;
    if client_id != conn_client {
        return; // a result claiming someone else's id is dropped
    }
    let current = coord.round();
    // Anything from an already-committed round is durable (it either
    // contributed or was superseded): re-ack so the client stops
    // re-sending, but never re-apply.
    if round < current || applied.contains(&(round, client_id)) {
        photon_trace::counter_add("transport.redelivery_acks", 1);
        send_to(
            registry,
            client_id,
            &Message::ResultAck { client_id, round },
            wire,
        );
        return;
    }
    let Some(fl) = in_flight else { return };
    if round != current || !fl.cohort.contains(&client_id) {
        return; // a future round or a non-cohort member: ignore
    }
    applied.insert((round, client_id));
    let late = Instant::now() >= fl.deadline;
    registry.telemetry.client(client_id, |row| {
        row.results += 1;
        row.observe_latency_ms(fl.opened.elapsed().as_millis() as u64);
        row.last_round = row.last_round.max(round);
        row.straggler_rounds += u64::from(late);
    });
    fl.pending.push((client_id, delta, weight, metrics));
    fl.wire_bytes += frame_len;
}

/// Commits the collected round through the aggregator, checkpoints, and
/// acks every contributor.
#[allow(clippy::too_many_arguments)]
fn commit_round(
    opts: &ServeOptions,
    agg: &mut Aggregator,
    coord: &mut Coordinator,
    registry: &Registry,
    fl: InFlight,
    now_ms: u64,
    resumed_from: Option<u64>,
) -> Result<RoundRecord> {
    let round = coord.round();
    let contributors: Vec<u32> = fl.pending.iter().map(|(id, _, _, _)| *id).collect();
    let received = fl.pending.len() as u32;
    // A cohort member whose result never arrived is this round's straggler
    // (partial-results commit superseded it).
    for &client in &fl.cohort {
        if !contributors.contains(&client) {
            registry
                .telemetry
                .client(client, |row| row.straggler_rounds += 1);
        }
    }
    let record = agg.commit_external_round(fl.pending, &fl.cohort, fl.wire_bytes)?;
    coord.on_round_committed(received, fl.cohort.len() as u32, 0, now_ms);
    publish_coordinator(registry, coord);
    if let Some(dir) = &opts.checkpoint_dir {
        agg.save_checkpoint(dir)?;
    }
    // Ack-after-commit: the results are durable now.
    {
        let mut sessions = registry.sessions.lock().unwrap();
        for &client_id in &contributors {
            sessions.note_acked(client_id, round);
        }
    }
    for client_id in contributors {
        send_to(
            registry,
            client_id,
            &Message::ResultAck { client_id, round },
            registry.wire,
        );
    }
    write_metrics(opts, coord, registry, resumed_from);
    Ok(record)
}

/// Mirrors the state machine's round and state for handshake-time
/// `RunSync` and publishes them to the metrics store.
fn publish_coordinator(registry: &Registry, coord: &Coordinator) {
    let state = coord.state();
    registry.round.store(coord.round(), Ordering::SeqCst);
    registry.state.store(state.discriminant(), Ordering::SeqCst);
    registry
        .telemetry
        .set_coordinator(coord.round(), state.discriminant(), state.name());
}

/// Writes the run's [`MetricsSnapshot`] as JSON: the store's part plus
/// what only this loop knows (sessions, the resume point, the ring of
/// recent rounds).
fn write_metrics(
    opts: &ServeOptions,
    coord: &Coordinator,
    registry: &Registry,
    resumed_from: Option<u64>,
) {
    let Some(path) = &opts.metrics_json else {
        return;
    };
    let snapshot = MetricsSnapshot {
        sessions: Some(registry.sessions.lock().unwrap().len() as u64),
        resumed_from,
        recent_rounds: Some(coord.recent_rounds()),
        ..registry.telemetry.snapshot()
    };
    if let Ok(json) = serde_json::to_string_pretty(&snapshot) {
        let _ = photon_trace::atomic_write(path, &json);
    }
}
