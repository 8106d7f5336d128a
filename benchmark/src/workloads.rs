//! The four workloads and the closed-loop session that runs one.
//!
//! Federated rounds are a closed loop: round r+1 starts after round r
//! commits, with a fixed client count per workload. A session is
//! build/provision, warm-up rounds (caches, pool threads, lazy backend
//! dispatch), then a measured window of a fixed round count. The seed
//! feeds only `FederationConfig.seed` and data generation.

use crate::calib::Calibrator;
use crate::host;
use crate::spans::Spans;
use crate::stats::median;
use photon_core::experiments::build_iid_federation;
use photon_core::{
    Aggregator, CohortSpec, DataSource, Federation, FederationConfig, HierarchyConfig, LlmClient,
    MembershipConfig, RoundRecord,
};
use photon_data::Shard;
use photon_fedopt::{AggregationKind, GuardConfig};
use photon_net::{run_client, serve, ClientOptions, RunPlan, ServeOptions};
use photon_nn::ModelConfig;
use photon_tensor::SeedStream;
use photon_tokenizer::TokenId;
use serde::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--seconds` at which the frozen round counts below apply; other values
/// scale every workload's count by the same factor.
pub const REF_SECONDS: u64 = 27;

/// Rounds `final_loss` averages over. One round of `tcp_large_tau1` is two
/// 64-token samples: on its own it is batch noise, not a training result.
pub const FINAL_LOSS_ROUNDS: usize = 10;

/// Mean of the last [`FINAL_LOSS_ROUNDS`] per-round losses.
fn final_loss(losses: &[f64]) -> f64 {
    let tail = &losses[losses.len().saturating_sub(FINAL_LOSS_ROUNDS)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The streaming-merge residency bound of `tree_100k`.
pub const TREE_MAX_RESIDENT: usize = 16;

/// How a workload is provisioned and driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process sim over `build_iid_federation`.
    IidSim,
    /// In-process sim, 10^5 registered clients over one shared token `Arc`.
    TreeSim,
    /// `photon_net::serve` + `run_client` threads over 127.0.0.1.
    Tcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// Why it exists (one line, in `BENCHMARK.json`).
    pub why: &'static str,
    /// Provisioning and transport.
    pub kind: Kind,
    /// Model architecture.
    pub model: fn() -> ModelConfig,
    /// Registered clients.
    pub population: usize,
    /// Clients per round.
    pub cohort: usize,
    /// Local steps per round.
    pub tau: u64,
    /// Local batch size.
    pub batch: usize,
    /// Tokens each client provisions.
    pub tokens_per_client: usize,
    /// Warm-up rounds before the measured window.
    pub warmup: u64,
    /// Measured rounds at `--seconds` = [`REF_SECONDS`]: sized for ~27 s on
    /// the 2-core reference host, and at least 100 so that p90 has ten
    /// samples beyond it.
    pub ref_rounds: u64,
    /// `final_loss` at the frozen round count for seeds 42 and 43.
    pub reference_loss: [(u64, f64); 2],
    /// How far `final_loss` may sit from its reference: the recorded
    /// cross-seed spread, so arithmetic-preserving changes pass and a
    /// training regression does not.
    pub loss_tolerance: f64,
}

fn nano_model() -> ModelConfig {
    ModelConfig {
        n_layers: 1,
        d_model: 8,
        n_heads: 1,
        exp_ratio: 2,
        vocab_size: 257,
        seq_len: 8,
    }
}

/// The four workloads, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_small_dense",
        why: "proxy_small, 2 clients, tau=4 B=8, mean merge, raw f32: the train step is >90% of the round, so kernel, GEMM, attention and pool work shows here and comms work shows nothing",
        kind: Kind::IidSim,
        model: ModelConfig::proxy_small,
        population: 2,
        cohort: 2,
        tau: 4,
        batch: 8,
        tokens_per_client: 16_384,
        warmup: 3,
        ref_rounds: 100,
        reference_loss: [(42, 1.1914623022079467), (43, 1.1172268867492676)],
        loss_tolerance: 0.025,
    },
    Workload {
        name: "sim_tiny_wide",
        why: "proxy_tiny, 8 clients on 2 cores, trimmed-mean + guard + compressed link: tiny GEMMs where pool dispatch dominates; catches gains tuned on big shapes, the mean merge or the raw codec",
        kind: Kind::IidSim,
        model: ModelConfig::proxy_tiny,
        population: 8,
        cohort: 8,
        tau: 4,
        batch: 4,
        tokens_per_client: 8_192,
        warmup: 3,
        ref_rounds: 360,
        reference_loss: [(42, 1.7457365155220033), (43, 1.714790165424347)],
        loss_tolerance: 0.03,
    },
    Workload {
        name: "tcp_large_tau1",
        why: "serve + 2 run_client over loopback TCP, proxy_large (6.3 MB frames), tau=1 B=1: frame codec, sockets, the merge and the coordinator are over half the round; photon-net work shows only here",
        kind: Kind::Tcp,
        model: ModelConfig::proxy_large,
        population: 2,
        cohort: 2,
        tau: 1,
        batch: 1,
        tokens_per_client: 4_096,
        warmup: 5,
        ref_rounds: 100,
        reference_loss: [(42, 2.8913126468658445), (43, 2.80828218460083)],
        loss_tolerance: 0.035,
    },
    Workload {
        name: "tree_100k",
        why: "100000 registered clients, 256 sampled, nano model, 8-shard streaming tree: compute is negligible; membership, sampling, client set-up, partition and merge are the round; setup and RSS matter",
        kind: Kind::TreeSim,
        model: nano_model,
        population: 100_000,
        cohort: 256,
        tau: 1,
        batch: 1,
        tokens_per_client: 64,
        warmup: 3,
        ref_rounds: 250,
        reference_loss: [(42, 5.532324409484863), (43, 5.535700798034668)],
        loss_tolerance: 0.001,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Measured rounds for a `--seconds` request: the frozen count at
    /// [`REF_SECONDS`], scaled by one common factor otherwise.
    pub fn rounds_for(&self, seconds: u64) -> u64 {
        ((self.ref_rounds * seconds + REF_SECONDS / 2) / REF_SECONDS).max(1)
    }

    /// Trained tokens per committed round.
    pub fn tokens_per_round(&self) -> u64 {
        self.cohort as u64 * self.tau * (self.batch * (self.model)().seq_len) as u64
    }

    /// The federation configuration for `seed`.
    pub fn config(&self, seed: u64) -> FederationConfig {
        let mut cfg = FederationConfig::quick_demo((self.model)(), self.population);
        cfg.local_steps = self.tau;
        cfg.local_batch = self.batch;
        cfg.seed = seed;
        match self.name {
            "sim_tiny_wide" => {
                cfg.aggregation = AggregationKind::parse("trimmed-mean")
                    .expect("trimmed-mean is a known aggregation rule");
                // Every screen still runs in full; only the norm z-score
                // verdict is put out of reach. Its median/MAD test over 8
                // honest IID clients rejects one or two of them in 1-9% of
                // rounds at the default threshold (6), and still does at 25
                // when the MAD collapses; a workload must not fail
                // operations, and that false-positive rate is a finding
                // for a robustness change, not something to time around.
                cfg.guard = GuardConfig {
                    zscore_threshold: 1e12,
                    ..GuardConfig::on()
                };
                cfg.compress_link = true;
            }
            "tree_100k" => {
                cfg.cohort = CohortSpec::Sample { k: self.cohort };
                cfg.allow_partial_results = true;
                cfg.membership = Some(MembershipConfig::default());
                cfg.hierarchy = Some(HierarchyConfig {
                    shards: 8,
                    shard_quorum_frac: 0.5,
                    max_resident: TREE_MAX_RESIDENT,
                });
            }
            _ => {}
        }
        cfg
    }

    /// Builds the in-process federation of a sim workload.
    ///
    /// # Errors
    /// A message when the configuration is rejected.
    pub fn build(&self, seed: u64) -> Result<Federation, String> {
        let cfg = self.config(seed);
        match self.kind {
            Kind::TreeSim => tree_federation(&cfg, self.tokens_per_client),
            _ => build_iid_federation(&cfg, self.tokens_per_client)
                .map(|(fed, _val)| fed)
                .map_err(|e| e.to_string()),
        }
    }
}

/// Provisions the registry as in `tests/hierarchy_scale.rs`: every client's
/// shard is a 64-token window into one shared buffer, so 10^5 clients cost
/// megabytes.
fn tree_federation(cfg: &FederationConfig, window: usize) -> Result<Federation, String> {
    let mut rng = SeedStream::new(cfg.seed);
    let mut data_rng = rng.split("data");
    let tokens: Arc<Vec<TokenId>> = Arc::new(
        (0..4096)
            .map(|_| data_rng.next_below(257) as TokenId)
            .collect(),
    );
    let span = tokens.len() - window;
    let clients = (0..cfg.population)
        .map(|i| {
            let start = (i * 31) % span;
            let shard = Shard::from_range(
                format!("scale-{i}"),
                Arc::clone(&tokens),
                start,
                start + window,
            );
            LlmClient::new(
                i as u32,
                DataSource::new(format!("ds-{i}"), shard),
                None,
                rng.split(&format!("client-{i}")),
            )
        })
        .collect();
    Ok(Federation {
        aggregator: Aggregator::new(cfg.clone()).map_err(|e| e.to_string())?,
        clients,
        joiner_tokens: window,
    })
}

/// What the coordinator's `/health` endpoint and the serve/client reports
/// say about a tcp session.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Session start to `serve` returning.
    pub serve_wall_s: f64,
    /// Session start to the first commit, minus the configured warm-up.
    pub first_commit_ms: f64,
    /// Mean over clients of the `/health` broadcast-to-result p50.
    pub result_latency_p50_ms: f64,
    /// Summed over clients.
    pub heartbeat_misses: u64,
    /// Summed over clients.
    pub reconnects: u64,
    /// Summed over clients.
    pub straggler_rounds: u64,
    /// Median duration of one `GET /health` as issued by the poller.
    pub health_poll_us: f64,
}

/// Everything one session measured.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Build/provision (tcp: session start to first commit).
    pub build_s: f64,
    /// Session start to the first measured round.
    pub setup_s: f64,
    /// Mean client loss of the first warm-up round.
    pub first_loss: f64,
    /// Mean client loss of the last warm-up round: equal bits across
    /// same-seed processes is the replay check.
    pub warm_loss: f64,
    /// Latency of each measured round.
    pub round_ms: Vec<f64>,
    /// Wall time of the measured window.
    pub window_s: f64,
    /// `setup_s` at the reference host's speed.
    pub setup_norm_s: f64,
    /// `round_ms` at the reference host's speed.
    pub round_norm_ms: Vec<f64>,
    /// `window_s` at the reference host's speed.
    pub window_norm_s: f64,
    /// Link bytes per committed round.
    pub wire_bytes_per_round: f64,
    /// Mean client loss over the last [`FINAL_LOSS_ROUNDS`] rounds.
    pub final_loss: f64,
    /// Measured rounds requested.
    pub attempted: u64,
    /// Rounds that errored, ran degraded/deferred, or committed fewer
    /// results than the cohort.
    pub failed: u64,
    /// Summed `RoundRecord` counts over the window.
    pub dropouts: u64,
    /// Summed `RoundRecord` counts over the window.
    pub stragglers: u64,
    /// Summed `RoundRecord` counts over the window.
    pub retransmits: u64,
    /// Largest `RoundRecord.peak_resident` seen.
    pub peak_resident: usize,
    /// VmHWM at the end of the window.
    pub peak_rss_mb: f64,
    /// Median machine slowdown against the reference host over the
    /// measured window (see `calib`).
    pub slowdown: f64,
    /// Idle `lo` traffic in the 200 ms before a tcp session.
    pub lo_idle_bytes: u64,
    /// tcp sessions only.
    pub net: Option<NetStats>,
    /// Output checks that failed.
    pub violations: Vec<String>,
}

impl Session {
    /// Trained tokens per second over the measured window: by the wall
    /// clock, and at the reference host's speed.
    pub fn tokens_per_s(&self, w: &Workload) -> (f64, f64) {
        let committed = self.attempted - self.failed.min(self.attempted);
        let tokens = (committed * w.tokens_per_round()) as f64;
        (tokens / self.window_s, tokens / self.window_norm_s)
    }
}

/// Runs one session: set-up, warm-up, then `rounds` measured rounds
/// (`rounds == 0` stops after warm-up, which is all a set-up probe needs).
///
/// # Errors
/// A message when the session cannot run at all; failed rounds and output
/// violations are reported in the [`Session`] instead.
pub fn run_session(
    w: &Workload,
    seed: u64,
    rounds: u64,
    spans: Option<&mut Spans>,
) -> Result<Session, String> {
    let mut session = match w.kind {
        Kind::Tcp => run_tcp(w, seed, rounds, spans)?,
        _ => run_sim(w, seed, rounds, spans)?,
    };
    if !session.final_loss.is_finite() || session.final_loss >= session.first_loss {
        session.violations.push(format!(
            "final loss {} not finite and below the first warm-up round's {}",
            session.final_loss, session.first_loss
        ));
    }
    if session.failed > 0 {
        session.violations.push(format!(
            "{} of {} rounds failed or ran short of the full cohort",
            session.failed, session.attempted
        ));
    }
    Ok(session)
}

/// Whether a committed sim round fell short of a clean full-cohort commit.
fn round_short(r: &RoundRecord, cohort: usize) -> bool {
    r.cohort.len() != cohort
        || r.dropouts + r.stragglers + r.guard_rejected + r.quarantined + r.unreachable > 0
        || r.degraded
        || r.commit_deferred
        || r.neutralized
}

fn run_sim(
    w: &Workload,
    seed: u64,
    rounds: u64,
    mut spans: Option<&mut Spans>,
) -> Result<Session, String> {
    let mut s = Session {
        attempted: rounds,
        ..Session::default()
    };
    let mut calibrator = Calibrator::new();
    let before = calibrator.edge_slowdown();
    let t0 = Instant::now();
    let mut fed = w.build(seed)?;
    let built = Instant::now();
    s.build_s = (built - t0).as_secs_f64();
    if let Some(sp) = spans.as_deref_mut() {
        sp.record("build", t0, built, None);
    }

    for r in 0..w.warmup {
        let t = Instant::now();
        let record = fed
            .run_round()
            .map_err(|e| format!("warm-up round {r}: {e}"))?;
        if let Some(sp) = spans.as_deref_mut() {
            sp.record("warmup_round", t, Instant::now(), Some(r));
        }
        if round_short(&record, w.cohort) {
            s.violations
                .push(format!("warm-up round {r} ran short of the cohort"));
        }
        if r == 0 {
            s.first_loss = f64::from(record.mean_client_loss);
        }
        s.warm_loss = f64::from(record.mean_client_loss);
    }
    let mut losses = vec![s.warm_loss];
    s.setup_s = t0.elapsed().as_secs_f64();
    let mut slowdowns = vec![calibrator.edge_slowdown()];
    s.setup_norm_s = s.setup_s / ((before + slowdowns[0]) / 2.0);

    let mut wire = 0u64;
    let mut committed = 0u64;
    for r in 0..rounds {
        let t = Instant::now();
        let outcome = fed.run_round();
        let end = Instant::now();
        s.round_ms.push((end - t).as_secs_f64() * 1e3);
        if let Some(sp) = spans.as_deref_mut() {
            sp.record("round", t, end, Some(w.warmup + r));
        }
        match outcome {
            Ok(record) => {
                if round_short(&record, w.cohort) {
                    s.failed += 1;
                } else {
                    committed += 1;
                    wire += record.wire_bytes;
                }
                s.dropouts += record.dropouts as u64;
                s.stragglers += record.stragglers as u64;
                s.retransmits += record.retransmits;
                s.peak_resident = s.peak_resident.max(record.peak_resident);
                losses.push(f64::from(record.mean_client_loss));
            }
            Err(e) => {
                s.failed += 1;
                s.violations.push(format!("round {}: {e}", w.warmup + r));
            }
        }
        // One pass of each loop between rounds: the machine's speed while
        // this window runs, not before or after it.
        slowdowns.push(calibrator.round_slowdown());
    }
    // Round r sits between samples r and r+1; a five-sample median
    // follows drift and drops a sample a context switch landed on.
    let smooth = |r: usize| {
        let lo = r.saturating_sub(2);
        median(&slowdowns[lo..(lo + 5).min(slowdowns.len())])
    };
    s.round_norm_ms = (0..s.round_ms.len())
        .map(|r| s.round_ms[r] / smooth(r))
        .collect();
    // The warm-up loss only stands in when no round was measured.
    s.final_loss = final_loss(&losses[usize::from(losses.len() > 1)..]);
    s.window_s = s.round_ms.iter().sum::<f64>() / 1e3;
    s.window_norm_s = s.round_norm_ms.iter().sum::<f64>() / 1e3;
    s.slowdown = median(&slowdowns);
    s.peak_rss_mb = host::peak_rss_mib();
    s.wire_bytes_per_round = wire as f64 / committed.max(1) as f64;
    if w.kind == Kind::TreeSim && s.peak_resident > TREE_MAX_RESIDENT {
        s.violations.push(format!(
            "peak_resident {} exceeds the bound {TREE_MAX_RESIDENT}",
            s.peak_resident
        ));
    }
    Ok(s)
}

/// Reserves a localhost port by binding `:0` and releasing it.
fn reserve_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("reserving a port: {e}"))
}

/// One `GET /health`, parsed. `None` while the endpoint is not up yet.
fn poll_health(port: u16) -> Option<Value> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.write_all(b"GET /health HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (_, body) = response.split_once("\r\n\r\n")?;
    serde_json::from_str_value(body).ok()
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?
        .iter()
        .find_map(|(k, v)| (k.as_str() == Some(key)).then_some(v))
}

fn run_tcp(
    w: &Workload,
    seed: u64,
    rounds: u64,
    spans: Option<&mut Spans>,
) -> Result<Session, String> {
    const WARMUP_MS: u64 = 100;
    const POLL: Duration = Duration::from_millis(5);
    let mut s = Session {
        attempted: rounds,
        ..Session::default()
    };
    let total = w.warmup + rounds;

    // Idle check: whatever else is talking over loopback would be billed
    // to this workload's wire bytes.
    let idle0 = host::lo_tx_bytes()?;
    std::thread::sleep(Duration::from_millis(200));
    let lo_start = host::lo_tx_bytes()?;
    s.lo_idle_bytes = lo_start - idle0;

    let t0 = Instant::now();
    let addr = format!("127.0.0.1:{}", reserve_port()?);
    let health_port = reserve_port()?;
    let serve_opts = ServeOptions {
        addr: addr.clone(),
        plan: RunPlan {
            cfg: w.config(seed),
            tokens_per_client: w.tokens_per_client,
            rounds: total,
            faults: None,
        },
        min_clients: w.cohort,
        checkpoint_dir: None,
        resume: false,
        warmup_ms: WARMUP_MS,
        cooldown_ms: 100,
        round_timeout_ms: 20_000,
        heartbeat_timeout_ms: 500,
        metrics_json: None,
        stop_after_rounds: None,
        health_port: Some(health_port),
    };
    let server = std::thread::spawn(move || {
        let report = serve(&serve_opts);
        (report, Instant::now())
    });
    let clients: Vec<_> = (0..w.cohort)
        .map(|_| {
            let opts = ClientOptions {
                addr: addr.clone(),
                heartbeat_interval_ms: 100,
                reconnect_base_ms: 50,
                reconnect_cap_ms: 500,
                max_connect_attempts: 100,
                ..ClientOptions::default()
            };
            std::thread::spawn(move || {
                let start = Instant::now();
                let report = run_client(&opts);
                (report, start, Instant::now())
            })
        })
        .collect();

    // The only outside view of a commit: `rounds_committed` on /health.
    let mut commits: Vec<Instant> = Vec::with_capacity(total as usize);
    let mut polls: Vec<(Instant, Instant)> = Vec::new();
    let mut last_health = None;
    while !server.is_finished() {
        let start = Instant::now();
        if let Some(health) = poll_health(health_port) {
            let now = Instant::now();
            polls.push((start, now));
            let seen = field(&health, "rounds_committed").and_then(Value::as_u64);
            while (commits.len() as u64) < seen.unwrap_or(0) {
                commits.push(now);
            }
            last_health = Some(health);
        }
        std::thread::sleep(POLL);
    }
    let (report, served) = server
        .join()
        .map_err(|_| "serve thread panicked".to_string())?;
    let client_runs: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().map_err(|_| "client thread panicked".to_string()))
        .collect::<Result<_, _>>()?;
    let lo_end = host::lo_tx_bytes()?;
    s.peak_rss_mb = host::peak_rss_mib();
    let report = report.map_err(|e| format!("serve: {e}"))?;

    if report.rounds_run != total || commits.len() as u64 != total {
        return Err(format!(
            "serve committed {} rounds, the poller saw {}, {total} requested",
            report.rounds_run,
            commits.len()
        ));
    }
    for (run, _, _) in &client_runs {
        match run {
            Ok(c) if c.clean_shutdown && c.rounds_trained == total => {}
            Ok(c) => s.violations.push(format!(
                "client {}: clean_shutdown={} rounds_trained={} of {total}",
                c.client_id, c.clean_shutdown, c.rounds_trained
            )),
            Err(e) => s.violations.push(format!("client: {e}")),
        }
    }

    let warm_end = commits[w.warmup as usize - 1];
    s.build_s = (commits[0] - t0).as_secs_f64();
    s.setup_s = (warm_end - t0).as_secs_f64();
    s.round_ms = commits[w.warmup as usize - 1..]
        .windows(2)
        .map(|c| (c[1] - c[0]).as_secs_f64() * 1e3)
        .collect();
    s.window_s = (commits[total as usize - 1] - warm_end).as_secs_f64();
    // Plain wall clock: `serve` leaves no gap between rounds to calibrate
    // in, and calibrating at the session's edges instead made the ten-seed
    // spreads worse (17-26% against 4-7% raw), not better.
    s.slowdown = 1.0;
    s.setup_norm_s = s.setup_s;
    s.round_norm_ms = s.round_ms.clone();
    s.window_norm_s = s.window_s;
    s.wire_bytes_per_round = (lo_end - lo_start) as f64 / total as f64;
    s.first_loss = report.round_losses[0];
    s.warm_loss = report.round_losses[w.warmup as usize - 1];
    s.final_loss = final_loss(&report.round_losses[(w.warmup as usize).min(total as usize - 1)..]);

    // Per-client SLOs: a result missing from any round is a failed round.
    let health = last_health.ok_or("the health endpoint never answered")?;
    let mut net = NetStats {
        serve_wall_s: (served - t0).as_secs_f64(),
        first_commit_ms: s.build_s * 1e3 - WARMUP_MS as f64,
        health_poll_us: median(
            &polls
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        ),
        ..NetStats::default()
    };
    let slos = field(&health, "clients")
        .and_then(Value::as_map)
        .ok_or("/health has no clients map")?;
    let count = |slo: &Value, key: &str| field(slo, key).and_then(Value::as_u64).unwrap_or(0);
    let mut missing = 0;
    let mut latencies = Vec::new();
    for (_, slo) in slos {
        missing = missing.max(total.saturating_sub(count(slo, "results")));
        net.heartbeat_misses += count(slo, "heartbeat_misses");
        net.reconnects += count(slo, "reconnects");
        net.straggler_rounds += count(slo, "straggler_rounds");
        latencies.extend(field(slo, "latency_ms_p50").and_then(Value::as_f64));
    }
    if slos.len() != w.cohort || latencies.len() != w.cohort {
        s.violations.push(format!(
            "/health lists {} clients, expected {}",
            slos.len(),
            w.cohort
        ));
    }
    s.failed = (missing + net.straggler_rounds).min(rounds);
    s.stragglers = net.straggler_rounds;
    net.result_latency_p50_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    s.net = Some(net);

    if let Some(sp) = spans {
        sp.record("serve", t0, served, None);
        for (i, (_, start, end)) in client_runs.iter().enumerate() {
            sp.record(&format!("client-{i}"), *start, *end, None);
        }
        let mut prev = t0;
        for (r, at) in commits.iter().enumerate() {
            let name = if (r as u64) < w.warmup {
                "warmup_round"
            } else {
                "round"
            };
            sp.record(name, prev, *at, Some(r as u64));
            prev = *at;
        }
        for (start, end) in polls {
            sp.record("health_poll", start, end, None);
        }
    }
    Ok(s)
}
