//! End-to-end multi-process-shaped tests over TCP loopback: one serve
//! loop and N client loops on their own threads, real sockets between
//! them. Covers the fault-free path, client netcrash + session resume,
//! coordinator crash-restart from the checkpoint, the live `/metrics`
//! endpoint with and without a trace recorder, and the sim-vs-TCP
//! differential: the same seed and config end with the same parameters
//! on both transports.

use photon_core::FederationConfig;
use photon_net::{run_client, serve, ClientOptions, RunPlan, ServeOptions};
use photon_nn::ModelConfig;
use photon_trace::{Recorder, TraceConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Reserves a localhost port (bind, read, release). The tiny race
/// between release and serve's bind is irrelevant at test scale.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    format!("127.0.0.1:{}", addr.port())
}

fn demo_plan(n_clients: usize, rounds: u64, faults: Option<&str>) -> RunPlan {
    let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), n_clients);
    cfg.local_steps = 4;
    cfg.allow_partial_results = true;
    RunPlan {
        cfg,
        tokens_per_client: 2_000,
        rounds,
        faults: faults.map(|s| photon_core::FaultSpec::parse(s).unwrap()),
    }
}

fn serve_opts(addr: &str, plan: RunPlan, min_clients: usize) -> ServeOptions {
    ServeOptions {
        addr: addr.to_string(),
        plan,
        min_clients,
        checkpoint_dir: None,
        resume: false,
        warmup_ms: 100,
        cooldown_ms: 100,
        round_timeout_ms: 20_000,
        heartbeat_timeout_ms: 500,
        metrics_json: None,
        stop_after_rounds: None,
        health_port: None,
    }
}

fn client_opts(addr: &str) -> ClientOptions {
    ClientOptions {
        addr: addr.to_string(),
        heartbeat_interval_ms: 100,
        reconnect_base_ms: 50,
        reconnect_cap_ms: 500,
        max_connect_attempts: 100,
        hang_ms: 1_200,
        session_file: None,
    }
}

/// Spawns `n` client threads against `addr`.
fn spawn_clients(
    addr: &str,
    n: usize,
) -> Vec<std::thread::JoinHandle<photon_net::Result<photon_net::ClientReport>>> {
    (0..n)
        .map(|_| {
            let opts = client_opts(addr);
            std::thread::spawn(move || run_client(&opts))
        })
        .collect()
}

#[test]
fn fault_free_run_trains_all_rounds() {
    let addr = free_addr();
    let plan = demo_plan(3, 3, None);
    let opts = serve_opts(&addr, plan, 3);
    let server = std::thread::spawn(move || serve(&opts));
    let clients = spawn_clients(&addr, 3);

    let report = server.join().unwrap().unwrap();
    assert_eq!(report.rounds_run, 3);
    assert_eq!(report.final_round, 3);
    assert_eq!(report.round_losses.len(), 3);
    assert!(report.round_losses.iter().all(|l| l.is_finite()));
    assert_eq!(report.session_resumes, 0);
    for handle in clients {
        let c = handle.join().unwrap().unwrap();
        assert!(c.clean_shutdown);
        assert_eq!(c.rounds_trained, 3);
        assert_eq!(c.reconnects, 0);
    }
}

#[test]
fn netcrash_client_resumes_and_run_converges() {
    // Baseline without faults.
    let addr = free_addr();
    let opts = serve_opts(&addr, demo_plan(3, 3, None), 3);
    let server = std::thread::spawn(move || serve(&opts));
    let clients = spawn_clients(&addr, 3);
    let baseline = server.join().unwrap().unwrap();
    for handle in clients {
        handle.join().unwrap().unwrap();
    }

    // Same run shape with a client-1 transport crash in round 1.
    let addr = free_addr();
    let opts = serve_opts(&addr, demo_plan(3, 3, Some("netcrash@r1c1")), 3);
    let server = std::thread::spawn(move || serve(&opts));
    let clients = spawn_clients(&addr, 3);
    let faulted = server.join().unwrap().unwrap();
    let mut resumed_total = 0;
    for handle in clients {
        let c = handle.join().unwrap().unwrap();
        assert!(c.clean_shutdown);
        resumed_total += c.resumed_sessions;
    }

    assert_eq!(faulted.rounds_run, 3);
    assert!(
        faulted.session_resumes >= 1,
        "the crashed client must resume"
    );
    assert!(resumed_total >= 1);
    // The crashed client's retained result is re-delivered after the
    // resume; dedup keys mean the run converges like the baseline (the
    // acceptance bound is 10%).
    let base = baseline.round_losses.last().unwrap();
    let fault = faulted.round_losses.last().unwrap();
    assert!(
        (fault - base).abs() <= 0.10 * base.abs(),
        "faulted final loss {fault} deviates more than 10% from baseline {base}"
    );
}

#[test]
fn coordinator_restart_resumes_from_checkpoint() {
    let addr = free_addr();
    let ckpt = std::env::temp_dir().join(format!(
        "photon-net-restart-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&ckpt).unwrap();

    // Phase 1: the coordinator "crashes" (stops cold, sockets slammed
    // shut, no Shutdown) after committing 2 of 4 rounds.
    let mut opts = serve_opts(&addr, demo_plan(3, 4, None), 3);
    opts.checkpoint_dir = Some(ckpt.clone());
    opts.stop_after_rounds = Some(2);
    let server = std::thread::spawn(move || serve(&opts));
    // Clients have a generous reconnect budget: they must ride out the
    // coordinator's death and resume into its successor.
    let clients = spawn_clients(&addr, 3);
    let first = server.join().unwrap().unwrap();
    assert_eq!(first.rounds_run, 2);
    assert_eq!(first.final_round, 2);

    // Phase 2: a new coordinator process restores from the checkpoint
    // and finishes the run with the surviving clients.
    let mut opts = serve_opts(&addr, demo_plan(3, 4, None), 3);
    opts.checkpoint_dir = Some(ckpt.clone());
    opts.resume = true;
    let server = std::thread::spawn(move || serve(&opts));
    let second = server.join().unwrap().unwrap();

    assert_eq!(second.resumed_from, Some(2));
    assert_eq!(second.rounds_run, 2, "rounds 2 and 3 run after restore");
    assert_eq!(second.final_round, 4);
    assert!(
        second.session_resumes >= 3,
        "all three clients must resume their sessions, got {}",
        second.session_resumes
    );
    for handle in clients {
        let c = handle.join().unwrap().unwrap();
        assert!(c.clean_shutdown);
        assert!(c.reconnects >= 1, "every client rode through the restart");
        assert!(c.resumed_sessions >= 1);
        assert_eq!(c.rounds_trained, 4);
    }
    std::fs::remove_dir_all(&ckpt).ok();
}

/// The body of one HTTP/1.0 GET against the health endpoint; `None` while
/// it is not (or no longer) up.
fn http_get(port: u16, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    let request = format!("GET {path} HTTP/1.0\r\n\r\n");
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response.split_once("\r\n\r\n")?.1.to_string())
}

/// `/metrics` is a rendering of the run's metrics store, so it carries the
/// fault, transport and per-client counters whether or not anything is
/// tracing, and a counter the store also mirrors into an enabled recorder
/// is printed once.
#[test]
fn metrics_endpoint_serves_the_store_with_and_without_a_recorder() {
    for traced in [false, true] {
        let addr = free_addr();
        let port: u16 = free_addr().rsplit(':').next().unwrap().parse().unwrap();
        let mut opts = serve_opts(&addr, demo_plan(2, 3, Some("netcrash@r1c1")), 2);
        opts.health_port = Some(port);
        opts.cooldown_ms = 1_000; // a window to scrape in once the rounds are done
        let recorder = traced.then(|| Recorder::start(TraceConfig::default()).unwrap());
        let server = std::thread::spawn(move || match &recorder {
            Some(recorder) => recorder.scope(|| serve(&opts)),
            None => serve(&opts),
        });
        let clients = spawn_clients(&addr, 2);

        // Client 1's connection dies in round 1 and the member gate holds
        // round 2 until it is back, so the last commit follows the resume.
        let committed = |health: String| -> Option<u64> {
            let (_, rest) = health.split_once("\"rounds_committed\": ")?;
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        let started = std::time::Instant::now();
        while http_get(port, "/health").and_then(committed) < Some(3) {
            assert!(started.elapsed().as_secs() < 60, "no third commit");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let text = http_get(port, "/metrics").expect("/metrics answers mid-run");
        photon_trace::lint_prometheus(&text).expect("lint");
        // Span self-times are the recorder's alone: the endpoint reports
        // the recorder the run is scoped under, when there is one.
        assert_eq!(text.contains("photon_phase_self_seconds{"), traced);
        for sample in [
            "photon_counter_total{name=\"rounds.committed\"} ",
            "photon_counter_total{name=\"transport.reconnects\"} 1\n",
            "photon_counter_total{name=\"transport.session_resumes\"} 1\n",
            "photon_counter_total{name=\"transport.redelivery_acks\"} ",
            "photon_client_results_total{client=\"0\"} ",
            "photon_client_reconnects_total{client=\"1\"} 1\n",
            "photon_client_connected{client=\"1\"} 1\n",
            "photon_client_result_latency_ms{client=\"0\",quantile=\"0.5\"} ",
        ] {
            let hits = text.matches(sample).count();
            assert_eq!(hits, 1, "traced: {traced}, {sample:?} x{hits} in\n{text}");
        }

        assert_eq!(server.join().unwrap().unwrap().rounds_run, 3);
        for handle in clients {
            assert!(handle.join().unwrap().unwrap().clean_shutdown);
        }
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "photon-net-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|v| v.to_bits()).collect()
}

/// What the serve side of a differential row ended with.
struct Served {
    report: photon_net::ServeReport,
    /// Its last `--metrics-json` snapshot.
    metrics: serde::Value,
    /// The parameters of its final checkpoint.
    params: Vec<f32>,
}

/// `serve` plus one `run_client` thread per client over loopback, with a
/// checkpoint directory.
fn serve_run(plan: RunPlan) -> Served {
    let (addr, dir) = (free_addr(), scratch("differential"));
    let clients = plan.cfg.population;
    let mut opts = serve_opts(&addr, plan, clients);
    opts.checkpoint_dir = Some(dir.join("ckpt"));
    opts.metrics_json = Some(dir.join("metrics.json"));
    let server = std::thread::spawn(move || serve(&opts));
    for handle in spawn_clients(&addr, clients) {
        assert!(handle.join().unwrap().unwrap().clean_shutdown);
    }
    let report = server.join().unwrap().unwrap();
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let params = photon_core::load_checkpoint(&dir.join("ckpt"))
        .unwrap()
        .params;
    std::fs::remove_dir_all(&dir).ok();
    Served {
        report,
        metrics: serde_json::from_str_value(&metrics).unwrap(),
        params,
    }
}

/// The same plan through `run_training`'s loop in the simulator.
fn sim_run(plan: &RunPlan, checkpoints: bool) -> photon_core::TrainingOutcome {
    let dir = scratch("sim");
    let opts = photon_core::TrainingOptions {
        run: photon_core::experiments::RunOptions {
            rounds: plan.rounds,
            eval_every: 0,
            eval_windows: 0,
            stop_below: None,
        },
        checkpoint_dir: checkpoints.then(|| dir.clone()),
        checkpoint_every: 1,
        ..photon_core::TrainingOptions::default()
    };
    let build = || {
        Ok((
            photon_core::build_federation(&plan.cfg, plan.tokens_per_client)?,
            None,
        ))
    };
    let outcome = photon_core::run_training_over(build, None, &opts, plan.fault_plan().as_ref());
    std::fs::remove_dir_all(&dir).ok();
    outcome.unwrap()
}

fn field<'a>(v: &'a serde::Value, path: &str) -> &'a serde::Value {
    path.split('.').fold(v, |v, key| {
        let map = v
            .as_map()
            .unwrap_or_else(|| panic!("{path}: not an object"));
        let hit = map.iter().find(|(k, _)| k.as_str() == Some(key));
        &hit.unwrap_or_else(|| panic!("{path}: no {key}")).1
    })
}

/// The north star's check: one seed and config, run by `serve` over TCP
/// and by the simulator, ends with the same parameters bit for bit — flat,
/// through a shard tree that loses a shard, with membership and a buffer,
/// through a watchdog rollback, and past a Byzantine client the guard
/// screens (the client applies its fault itself). Each row also reads one
/// metric, equal on both sides, that shows the row did what it names.
#[test]
fn serve_over_tcp_ends_where_the_simulator_does() {
    let tree = |cfg: &mut FederationConfig| {
        cfg.hierarchy = Some(photon_core::HierarchyConfig {
            shards: 4,
            ..photon_core::HierarchyConfig::default()
        });
    };
    let buffered = |cfg: &mut FederationConfig| {
        cfg.membership = Some(photon_core::MembershipConfig::default());
        cfg.buffer = Some(photon_fedopt::BufferConfig {
            quorum: 3,
            ..photon_fedopt::BufferConfig::default()
        });
    };
    let watched = |cfg: &mut FederationConfig| cfg.loss_spike_mult = Some(20.0);
    let guarded = |cfg: &mut FederationConfig| cfg.guard = photon_fedopt::GuardConfig::on();
    // Name, clients, rounds, faults, the config edit, and the metric.
    type Row<'a> = (
        &'a str,
        usize,
        u64,
        Option<&'a str>,
        &'a dyn Fn(&mut FederationConfig),
        (&'a str, u64),
    );
    let rows: [Row; 5] = [
        ("flat", 3, 3, None, &|_| {}, ("rounds_committed", 3)),
        (
            "4-shard tree",
            8,
            3,
            Some("shardcrash@r1s2"),
            &tree,
            ("fault_counters.shard_crashes", 1),
        ),
        (
            "membership + buffer",
            4,
            4,
            None,
            &buffered,
            ("fault_counters.buffered_commits", 4),
        ),
        (
            "watchdog rollback",
            3,
            6,
            Some("scale:4000@r4c0"),
            &watched,
            ("rollbacks", 1),
        ),
        (
            "guard + nan-update",
            3,
            3,
            Some("nan-update@r1c0"),
            &guarded,
            ("fault_counters.rejected_nonfinite", 1),
        ),
    ];
    for (name, clients, rounds, faults, edit, (metric, want)) in rows {
        let mut plan = demo_plan(clients, rounds, faults);
        edit(&mut plan.cfg);
        let sim = sim_run(&plan, true);
        let tcp = serve_run(plan);
        assert!(
            bits(&tcp.params) == bits(sim.federation.aggregator.params()),
            "{name}: the serve run's checkpoint differs from the simulator's final params"
        );
        let losses = sim
            .history
            .rounds
            .iter()
            .map(|r| f64::from(r.mean_client_loss));
        assert_eq!(
            tcp.report.round_losses,
            losses.collect::<Vec<_>>(),
            "{name}"
        );
        let sim_json = serde_json::to_string(&sim.snapshot()).unwrap();
        let sim_metrics = serde_json::from_str_value(&sim_json).unwrap();
        for side in [&tcp.metrics, &sim_metrics] {
            assert_eq!(field(side, metric).as_u64(), Some(want), "{name}: {metric}");
        }
        let recent = field(&tcp.metrics, "recent_rounds").as_seq().unwrap();
        assert_eq!(recent.len() as u64, rounds, "{name}: recent rounds");
    }
}
