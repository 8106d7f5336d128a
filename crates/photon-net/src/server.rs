//! `photon serve`: the multi-process coordinator — the training driver
//! ([`run_training_over`]) with a TCP [`Transport`].
//!
//! One listener thread accepts TCP connections and handshakes sessions;
//! one reader thread per connection checks each frame's CRC once, decodes
//! it and forwards it to the driver's thread. That thread runs the same
//! loop `photon train` does — restore on `--resume`, the round engine,
//! checkpoints, watchdog rollback, crash recovery, the metrics sinks — and
//! the transport stage pumps the forwarded events whenever it waits: for
//! the member gate, for a round's results, through the cooldown.
//! Robustness invariants:
//!
//! * **Idempotent re-delivery** — a result re-sent within its round is a
//!   duplicate the round engine drops; one for a round that already
//!   committed is acknowledged again but never applied
//!   (`transport.redelivery_acks`), so a client that re-sends after a
//!   reconnect cannot double-count.
//! * **Ack-after-durability** — `ResultAck` is sent only once the round the
//!   result contributed to has committed and, when a checkpoint directory
//!   is configured, been checkpointed, so "acked" always implies "durable"
//!   even across a coordinator kill.
//! * **Session resumption** — a reconnecting client re-authenticates by
//!   deterministic token and rejoins its in-flight round; the model is
//!   re-sent to it while its result is outstanding.
//! * **Crash-restart** — with `resume`, the driver restores the
//!   checkpoint, a fresh member gate re-gathers the clients, and every
//!   client that reconnects is re-synchronized via `RunSync`.

use crate::coordinator::{CoordState, Coordinator};
use crate::health::spawn_health_server;
use crate::plan::RunPlan;
use crate::session::SessionTable;
use crate::tcp::TcpLink;
use crate::{run_trace_id, spawn_in_scope, NetError, Result};
use photon_comms::{Link, LinkError, Message, SealedFrame, WireOpts};
use photon_core::experiments::RunOptions;
use photon_core::ClientFault::{Corrupt, Straggle};
use photon_core::FaultEvent::{CoordKill, SlowLink};
use photon_core::{
    checkpoint_exists, run_training_over, Aggregator, ClientReply, Exchange, FaultKind, FaultPlan,
    FaultSpec, Federation, Telemetry, TrainingOptions, Transport,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit code the coordinator process dies with on an injected
/// `coordkill` fault — distinguishable from a real crash in the chaos
/// suite.
pub(crate) const COORDKILL_EXIT_CODE: i32 = 41;

/// Consecutive heartbeat-timeout windows before a quiet connection is
/// severed (its session survives for a later resume).
const HEARTBEAT_STRIKES: u32 = 3;

/// How long one pump of the event queue waits for its first event.
const POLL: Duration = Duration::from_millis(20);

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
    /// Restore the run from `checkpoint_dir` when a checkpoint exists
    /// (coordinator crash-restart).
    pub resume: bool,
    /// Settle delay between the member gate opening and the first
    /// broadcast, in milliseconds.
    pub warmup_ms: u64,
    /// Grace window after the last commit before shutdown, in
    /// milliseconds.
    pub cooldown_ms: u64,
    /// Per-round result deadline in milliseconds; a cohort member whose
    /// result has not arrived by then is a dropout of the round.
    pub round_timeout_ms: u64,
    /// A connection quiet for longer than this counts a heartbeat miss;
    /// `HEARTBEAT_STRIKES` consecutive misses sever it.
    pub heartbeat_timeout_ms: u64,
    /// Write a metrics JSON snapshot here after every round.
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

/// Everything the accept/reader threads share with the driver's thread.
struct Registry {
    conns: Mutex<BTreeMap<u32, Arc<TcpLink>>>,
    sessions: Mutex<SessionTable>,
    /// The round and gate state mirrored for handshake-time `RunSync`.
    round: AtomicU64,
    state: AtomicU8,
    plan_json: Vec<u8>,
    wire: WireOpts,
    events: Sender<Event>,
    /// The run's metrics store: the transport writes the coordinator state
    /// and the per-client transport columns into it.
    telemetry: Telemetry,
}

impl Registry {
    fn link(&self, client: u32) -> Option<Arc<TcpLink>> {
        self.conns.lock().unwrap().get(&client).cloned()
    }
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

/// Per-client liveness bookkeeping owned by the driver's thread.
struct Liveness {
    last_seen: Instant,
    strikes: u32,
}

impl Liveness {
    fn now() -> Liveness {
        Liveness {
            last_seen: Instant::now(),
            strikes: 0,
        }
    }
}

/// Runs the coordinator until the driver has run every round and the
/// cooldown has passed (or a `coordkill` fault terminates the process
/// after a commit).
///
/// # Errors
/// Configuration rejections, socket failures, and the driver's errors.
pub fn serve(opts: &ServeOptions) -> Result<ServeReport> {
    let plan = &opts.plan;
    if plan.cfg.secure_agg {
        // A TCP client trains without knowing its cohort, so the pairwise
        // masks could not cancel in the aggregate.
        return Err(NetError::Protocol(
            "multi-process serve does not support secure aggregation".into(),
        ));
    }
    if let Some(kind) = plan.faults.as_ref().and_then(simulated_link_fault) {
        // Over TCP a result arrives or misses the round timeout: no
        // simulated link delays, corrupts, loses or partitions it.
        return Err(NetError::Protocol(format!(
            "multi-process serve does not inject {kind} faults: only train's simulated link does"
        )));
    }
    if photon_trace::enabled() {
        // Actor 0 is the coordinator lane; the trace id is a pure
        // function of the seed, so clients derive the same one.
        photon_trace::set_trace_scope(run_trace_id(plan.cfg.seed), 0);
    }

    let telemetry = Telemetry::new();
    let restarted = opts.resume
        && opts
            .checkpoint_dir
            .as_deref()
            .is_some_and(checkpoint_exists);
    let (seed, capacity) = (plan.cfg.seed, plan.cfg.population as u32);
    let (events_tx, events_rx) = channel();
    let registry = Arc::new(Registry {
        conns: Mutex::new(BTreeMap::new()),
        sessions: Mutex::new(if restarted {
            SessionTable::new_restarted(seed, capacity)
        } else {
            SessionTable::new(seed, capacity)
        }),
        round: AtomicU64::new(0),
        state: AtomicU8::new(CoordState::WaitingForMembers.discriminant()),
        plan_json: plan.to_json_bytes(),
        wire: plan.cfg.wire_opts(),
        events: events_tx,
        telemetry: telemetry.clone(),
    });

    let faults = plan.fault_plan();
    let mut tcp = Tcp {
        opts,
        registry: &registry,
        events: events_rx,
        faults: faults.as_ref(),
        gate: Coordinator::new(opts.min_clients, opts.warmup_ms, opts.cooldown_ms),
        started: Instant::now(),
        liveness: BTreeMap::new(),
        current: 0,
        in_flight: None,
        contributors: Vec::new(),
        commits: 0,
        stopped: false,
    };
    // The state is in the store before anything can scrape it.
    tcp.publish();
    let health_server = match opts.health_port {
        Some(port) => Some(spawn_health_server(port, telemetry.clone())?),
        None => None,
    };
    let listener = bind_with_retry(&opts.addr)?;
    let local_addr = listener.local_addr()?;
    let accepting = Arc::new(AtomicBool::new(true));
    spawn_accept_loop(
        listener,
        Arc::clone(&registry),
        opts.heartbeat_timeout_ms,
        Arc::clone(&accepting),
    );

    let training = TrainingOptions {
        run: RunOptions {
            rounds: plan.rounds,
            eval_every: 0,
            eval_windows: 0,
            stop_below: None,
        },
        checkpoint_dir: opts.checkpoint_dir.clone(),
        // Acks follow durability: every round is checkpointed before its
        // results are acked.
        checkpoint_every: 1,
        resume: opts.resume,
        metrics_json: opts.metrics_json.clone(),
        ..TrainingOptions::default()
    };
    let build = || {
        let aggregator = Aggregator::with_telemetry(plan.cfg.clone(), telemetry.clone())?;
        let federation = Federation {
            aggregator,
            clients: Vec::new(),
            joiner_tokens: 0,
        };
        Ok((federation, None))
    };
    let outcome = run_training_over(build, Some(&mut tcp), &training, faults.as_ref());
    // A simulated crash, like a failed run, skips the cooldown and the
    // goodbye and slams every socket shut, exactly like a real kill.
    tcp.wind_down(outcome.is_ok() && !tcp.stopped);

    // Unblock and retire the accept thread so a restarted coordinator
    // can rebind the port.
    accepting.store(false, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(local_addr);
    if let Some(server) = health_server {
        server.shutdown();
    }
    let _ = photon_trace::flush();
    let outcome = outcome?;
    let history = &outcome.history.rounds;
    let session_resumes = registry.sessions.lock().unwrap().total_resumes();
    Ok(ServeReport {
        rounds_run: history.len() as u64,
        final_round: outcome.federation.aggregator.round(),
        round_losses: history
            .iter()
            .map(|r| f64::from(r.mean_client_loss))
            .collect(),
        resumed_from: outcome.resumed_from,
        session_resumes,
    })
}

/// The first fault kind in `spec` that only the simulated link injects.
fn simulated_link_fault(spec: &FaultSpec) -> Option<&'static str> {
    let rates = [
        ("straggle", spec.p_straggle),
        ("corrupt", spec.p_corrupt),
        ("lossy", spec.p_link_loss),
    ];
    let pinned = spec.targeted.iter().find_map(|t| match t.kind {
        FaultKind::Client {
            fault: Straggle { .. },
        } => Some("straggle"),
        FaultKind::Client {
            fault: Corrupt { .. },
        } => Some("corrupt"),
        FaultKind::Event { event: SlowLink } => Some("slowlink"),
        _ => None,
    });
    let partition = (!spec.partitions.is_empty()).then_some("partition");
    let rated = rates
        .into_iter()
        .find_map(|(kind, p)| (p > 0.0).then_some(kind));
    rated.or(pinned).or(partition)
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

/// The accept thread: handshakes each connection and spawns its reader,
/// all on the coordinator's lane of the recorder `serve` runs under.
fn spawn_accept_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    hb_timeout_ms: u64,
    accepting: Arc<AtomicBool>,
) {
    spawn_in_scope("photon-accept", move || {
        photon_trace::set_actor(0);
        for stream in listener.incoming() {
            if !accepting.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            let registry = Arc::clone(&registry);
            // A connection the process has no thread for is dropped; its
            // client reconnects.
            let _ = spawn_in_scope("photon-handshake", move || {
                if let Ok(link) = TcpLink::from_stream(stream) {
                    handshake(Arc::new(link), &registry, hb_timeout_ms);
                }
            });
        }
    })
    .expect("spawn the accept thread");
}

/// Admits (or resumes) one connection, installs it in the registry, and
/// spawns the per-connection reader thread.
fn handshake(link: Arc<TcpLink>, registry: &Registry, hb_timeout_ms: u64) {
    let hello = match link.recv(Duration::from_secs(5)) {
        Ok((
            Message::SessionHello {
                client_id, token, ..
            },
            _,
            _,
        )) => (client_id, token),
        _ => return, // not a client of ours; drop the connection
    };
    let admission = {
        let mut sessions = registry.sessions.lock().unwrap();
        let admission = sessions.admit(hello.0, hello.1);
        registry.telemetry.set_sessions(sessions.len() as u64);
        match admission {
            Ok(admission) => admission,
            Err(_) => return, // bad token or full: refuse silently
        }
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
    if link.send(&grant, registry.wire).is_err() || link.send(&sync, registry.wire).is_err() {
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

/// Per-connection reader: forwards decoded frames to the driver's thread
/// until the link dies.
fn spawn_reader(link: Arc<TcpLink>, client: u32, events: Sender<Event>, hb_timeout_ms: u64) {
    spawn_in_scope("photon-reader", move || {
        let poll = Duration::from_millis(hb_timeout_ms.max(10));
        loop {
            match link.recv(poll) {
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
    })
    .expect("spawn a reader thread");
}

/// The round in flight.
struct InFlight {
    round: u64,
    cohort: Vec<u32>,
    /// The round's model, encoded once: the cohort fan-out, a stalled
    /// round's re-broadcast and a resumed session's re-send all put these
    /// same bytes on the wire.
    broadcast: SealedFrame,
    replies: Vec<ClientReply>,
    /// Cohort members whose result arrived.
    heard: BTreeSet<u32>,
    /// When the round was broadcast — client result latency is measured
    /// from here, so it includes the model download and the local step.
    opened: Instant,
}

/// The TCP transport: the cohort's sessions, reached through the
/// registry's connections, behind the member gate.
struct Tcp<'a> {
    opts: &'a ServeOptions,
    registry: &'a Registry,
    events: Receiver<Event>,
    faults: Option<&'a FaultPlan>,
    gate: Coordinator,
    started: Instant,
    liveness: BTreeMap<u32, Liveness>,
    /// The round in flight, or next to run: a result for an earlier one is
    /// durable.
    current: u64,
    in_flight: Option<InFlight>,
    /// Who delivered the round last exchanged, acked once it is durable.
    contributors: Vec<u32>,
    commits: u64,
    /// Whether `stop_after_rounds` ended the run.
    stopped: bool,
}

impl Transport for Tcp<'_> {
    fn roster_len(&self) -> usize {
        self.opts.plan.cfg.population
    }

    fn exchange(&mut self, x: Exchange<'_>) -> photon_core::Result<Vec<ClientReply>> {
        self.current = x.round;
        self.publish();
        // The member gate. What queued up during the last commit is
        // handled at once, so while the gate holds the round starts with no
        // wait.
        let mut wait = Duration::ZERO;
        while self.gate.state() != CoordState::RoundStart {
            self.pump(wait);
            wait = POLL;
        }
        for &client in x.cohort {
            let round = x.round;
            self.registry
                .telemetry
                .client(client, |row| row.last_round = round);
            send_sealed_to(self.registry, client, &x.broadcast);
        }
        let timeout = Duration::from_millis(self.opts.round_timeout_ms.max(1));
        let mut deadline = Instant::now() + timeout;
        self.in_flight = Some(InFlight {
            round: x.round,
            cohort: x.cohort.to_vec(),
            broadcast: x.broadcast,
            replies: Vec::new(),
            heard: BTreeSet::new(),
            opened: Instant::now(),
        });
        loop {
            let fl = self.in_flight.as_ref().expect("the round is in flight");
            if fl.heard.len() == fl.cohort.len() {
                break;
            }
            if Instant::now() >= deadline {
                if !fl.heard.is_empty() {
                    break;
                }
                // Nothing collected (every cohort member is mid-reconnect):
                // re-broadcast and rearm rather than run an empty round.
                deadline = Instant::now() + timeout;
                for &client in &fl.cohort {
                    send_sealed_to(self.registry, client, &fl.broadcast);
                }
            }
            self.pump(POLL);
        }
        let fl = self.in_flight.take().expect("the round is in flight");
        // A member whose result missed the deadline is a dropout.
        let mut replies = fl.replies;
        for &client_id in fl.cohort.iter().filter(|c| !fl.heard.contains(c)) {
            self.registry
                .telemetry
                .client(client_id, |row| row.straggler_rounds += 1);
            replies.push(ClientReply::Crash { client_id });
        }
        self.contributors = fl.heard.into_iter().collect();
        Ok(replies)
    }

    fn committed(&mut self, round: u64) -> bool {
        let transition = self.gate.round_committed(self.now_ms());
        self.current = round + 1;
        self.transition(transition);
        // The round is committed, and checkpointed when the run keeps
        // checkpoints: its results are durable, so ack them now.
        let mut sessions = self.registry.sessions.lock().unwrap();
        for &client in &self.contributors {
            sessions.note_acked(client, round);
        }
        drop(sessions);
        for client_id in std::mem::take(&mut self.contributors) {
            self.send_to(client_id, &Message::ResultAck { client_id, round });
        }
        if self.faults.is_some_and(|f| f.has(CoordKill, round, 0)) {
            // The injected coordinator kill: the checkpoint for this
            // commit is already on disk; die without any goodbye. The
            // flight recorder preserves the final round's spans.
            let _ = photon_trace::flush();
            let _ = photon_trace::flight_dump();
            std::process::exit(COORDKILL_EXIT_CODE);
        }
        self.commits += 1;
        // In-process crash simulation: stop cold, no Shutdown.
        self.stopped = self
            .opts
            .stop_after_rounds
            .is_some_and(|n| self.commits >= n);
        !self.stopped
    }
}

impl Tcp<'_> {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Mirrors the round and the gate's state for handshake-time `RunSync`
    /// and publishes them to the metrics store.
    fn publish(&self) {
        let state = self.gate.state();
        self.registry.round.store(self.current, Ordering::SeqCst);
        self.registry
            .state
            .store(state.discriminant(), Ordering::SeqCst);
        self.registry
            .telemetry
            .set_coordinator(self.current, state.discriminant(), state.name());
    }

    fn transition(&self, (from, to): (CoordState, CoordState)) {
        self.publish();
        photon_trace::instant(
            photon_trace::Phase::Round,
            "coord_transition",
            &[
                ("from", u64::from(from.discriminant())),
                ("to", u64::from(to.discriminant())),
            ],
        );
    }

    /// Handles the events that have arrived (waiting up to `wait` for the
    /// first), strikes quiet connections and advances the gate.
    fn pump(&mut self, wait: Duration) {
        let mut next = self.events.recv_timeout(wait).ok();
        while let Some(event) = next {
            self.handle(event);
            next = self.events.try_recv().ok();
        }
        // Heartbeat-miss accounting: one strike per quiet timeout window;
        // enough strikes sever the connection (the session survives).
        let hb_timeout = Duration::from_millis(self.opts.heartbeat_timeout_ms.max(1));
        let telemetry = &self.registry.telemetry;
        for (&client, live) in self.liveness.iter_mut() {
            if live.last_seen.elapsed() >= hb_timeout {
                live.last_seen = Instant::now();
                live.strikes += 1;
                telemetry.count(|f| f.heartbeat_misses += 1);
                telemetry.client(client, |row| row.heartbeat_misses += 1);
                if live.strikes >= HEARTBEAT_STRIKES {
                    if let Some(link) = self.registry.link(client) {
                        link.sever();
                    }
                }
            }
        }
        let connected = self.registry.conns.lock().unwrap().len();
        if let Some(transition) = self.gate.tick(connected, self.now_ms()) {
            self.transition(transition);
        }
    }

    fn handle(&mut self, event: Event) {
        let telemetry = &self.registry.telemetry;
        match event {
            Event::Frame {
                client,
                msg,
                frame_len,
            } => {
                self.liveness.insert(client, Liveness::now());
                self.on_result(client, msg, frame_len);
            }
            Event::Connected { client, resumed } => {
                self.liveness.insert(client, Liveness::now());
                telemetry.client(client, |row| {
                    row.connected = true;
                    row.reconnects += u64::from(resumed);
                });
                if !resumed {
                    return;
                }
                telemetry.count(|f| {
                    f.transport_reconnects += 1;
                    f.session_resumes += 1;
                });
                photon_trace::instant(
                    photon_trace::Phase::SessionResume,
                    "session_resume",
                    &[("client", u64::from(client))],
                );
                // Rejoin the in-flight round: re-send the model if this
                // client's result is still outstanding.
                if let Some(fl) = &self.in_flight {
                    if fl.cohort.contains(&client) && !fl.heard.contains(&client) {
                        send_sealed_to(self.registry, client, &fl.broadcast);
                    }
                }
            }
            Event::Disconnected { client, link } => {
                // A stale goodbye from a superseded connection must not
                // evict the resumed one that replaced it.
                let mut conns = self.registry.conns.lock().unwrap();
                if conns
                    .get(&client)
                    .is_some_and(|cur| Arc::ptr_eq(cur, &link))
                {
                    conns.remove(&client);
                    drop(conns);
                    self.liveness.remove(&client);
                    telemetry.client(client, |row| row.connected = false);
                }
            }
        }
    }

    /// Routes one arriving `ClientResult`: into the round in flight, or a
    /// re-ack for anything already durable.
    fn on_result(&mut self, conn_client: u32, message: Message, frame_len: u64) {
        let &Message::ClientResult {
            round, client_id, ..
        } = &message
        else {
            return; // heartbeats and the rest of the control plane
        };
        if client_id != conn_client {
            return; // a result claiming someone else's id is dropped
        }
        if round < self.current {
            // Its round committed (with or without it): re-ack so the
            // client stops re-sending, but never re-apply.
            self.registry.telemetry.count(|f| f.redelivery_acks += 1);
            self.send_to(client_id, &Message::ResultAck { client_id, round });
            return;
        }
        let Some(fl) = self.in_flight.as_mut() else {
            return;
        };
        if round != fl.round || !fl.cohort.contains(&client_id) {
            return; // a future round or a non-member: ignore
        }
        if fl.heard.insert(client_id) {
            let latency_ms = fl.opened.elapsed().as_millis() as u64;
            self.registry.telemetry.client(client_id, |row| {
                row.results += 1;
                row.observe_latency_ms(latency_ms);
                row.last_round = row.last_round.max(round);
            });
        }
        // A second copy within the round goes to the engine's dedup too.
        fl.replies.push(ClientReply::Received {
            client_id,
            message,
            frame_len,
        });
    }

    fn send_to(&self, client: u32, msg: &Message) {
        if let Some(link) = self.registry.link(client) {
            let _ = link.send(msg, self.registry.wire);
        }
    }

    /// Ends the run: after a cooldown that keeps re-acking late
    /// re-deliveries, every client is told to shut down — or, when the
    /// run did not finish, every socket is slammed shut.
    fn wind_down(&mut self, graceful: bool) {
        if graceful {
            let transition = self.gate.finish(self.now_ms());
            self.transition(transition);
            while self.gate.state() != CoordState::Finished {
                self.pump(POLL);
            }
        }
        let conns: Vec<Arc<TcpLink>> = self
            .registry
            .conns
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect();
        for link in conns {
            if graceful {
                let _ = link.send(&Message::Shutdown, self.registry.wire);
            } else {
                link.sever();
            }
        }
    }
}

fn send_sealed_to(registry: &Registry, client: u32, frame: &SealedFrame) {
    if let Some(link) = registry.link(client) {
        let _ = link.send_sealed(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::FederationConfig;
    use photon_nn::ModelConfig;

    #[test]
    fn serve_refuses_the_faults_only_the_simulated_link_injects() {
        let kind = |spec: &str| simulated_link_fault(&FaultSpec::parse(spec).unwrap());
        for (spec, want) in [
            ("straggle=0.2", "straggle"),
            ("straggle:300@r1c0", "straggle"),
            ("corrupt=0.1", "corrupt"),
            ("corrupt:2@r1c0", "corrupt"),
            ("lossy=0.1", "lossy"),
            ("slowlink@r1c0", "slowlink"),
            ("partition@r1:0|1", "partition"),
        ] {
            assert_eq!(kind(spec), Some(want), "{spec}");
        }
        for spec in [
            "crash=0.2,nan=0.1,straggle-ms=500,corrupt-attempts=3",
            "netcrash@r1c1,nethang@r2c0,coordkill@r2,scale:4000@r2c0",
        ] {
            assert_eq!(kind(spec), None, "{spec}");
        }

        // The refusal comes before anything binds or trains.
        let plan = RunPlan {
            cfg: FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 2),
            tokens_per_client: 2_000,
            rounds: 2,
            faults: Some(FaultSpec::parse("straggle=0.2").unwrap()),
        };
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            plan,
            min_clients: 2,
            checkpoint_dir: None,
            resume: false,
            warmup_ms: 0,
            cooldown_ms: 0,
            round_timeout_ms: 1_000,
            heartbeat_timeout_ms: 500,
            metrics_json: None,
            stop_after_rounds: None,
            health_port: None,
        };
        let err = serve(&opts).unwrap_err().to_string();
        assert!(err.contains("straggle"), "{err}");
    }
}
