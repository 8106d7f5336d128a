//! Network chaos integration tests: the deterministic link model and
//! partition schedule must keep training on track. A minority partition
//! costs little and heals cleanly; a below-quorum partition drives the
//! aggregator into degraded mode and back out; duplicating links never
//! double-apply an update; retransmit exhaustion surfaces as counted dropouts without stalling the round; a torn
//! checkpoint falls back to a clean restart; and the whole chaos stack
//! replays byte-identically under the simulated clock.

use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{
    run_training, AdaptiveDeadlineConfig, FaultSpec, FederationConfig, LinkProfile,
    MembershipConfig, NetworkConfig, Tally, TrainingOptions,
};
use photon_fedopt::BufferConfig;
use photon_tests::tiny_federation;
use photon_trace::{ClockMode, Recorder, TraceConfig};
use std::fs;
use std::path::PathBuf;

const TOKENS: usize = 3_000;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-netchaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn run_opts(rounds: u64, metrics_json: Option<PathBuf>) -> TrainingOptions {
    TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 0,
            stop_below: None,
        },
        checkpoint_dir: None,
        checkpoint_every: 5,
        recovery_budget: 0,
        resume: false,
        metrics_json,
    }
}

/// Acceptance (a): a healing minority partition (1 of 4 clients, 25%)
/// finishes within 10% of the fault-free loss with zero rollbacks, and
/// the per-link stats land in the live metrics JSON.
#[test]
fn minority_partition_converges_near_fault_free() {
    let rounds = 6u64;
    let mut cfg = tiny_federation(4);
    cfg.seed = 31;
    cfg.allow_partial_results = true;
    cfg.network = Some(NetworkConfig {
        profile: LinkProfile {
            base_latency_ms: 20,
            jitter_ms: 10,
            ..LinkProfile::default()
        },
        ..NetworkConfig::default()
    });

    let clean = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &run_opts(rounds, None),
        None,
    )
    .expect("fault-free run completes");

    let spec = FaultSpec::parse("partition@r1-r4:*|3,seed=7").expect("partition spec parses");
    let injector = spec.plan(cfg.population, rounds);
    assert_eq!(injector.count(Tally::Partitions), 1);
    let dir = tmp_dir("minority");
    let mjson = dir.join("metrics.json");
    let part = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &run_opts(rounds, Some(mjson.clone())),
        Some(&injector),
    )
    .expect("partitioned run completes");

    assert_eq!(part.rollbacks, 0, "minority partition must not roll back");
    let unreachable: usize = part.history.rounds.iter().map(|r| r.unreachable).sum();
    assert_eq!(unreachable, 3, "client 3 unreachable in rounds 1-3");
    assert!(
        part.history.rounds.iter().all(|r| !r.degraded),
        "a 25% partition stays above the 50% quorum"
    );
    let clean_loss = clean.history.rounds.last().unwrap().mean_client_loss;
    let part_loss = part.history.rounds.last().unwrap().mean_client_loss;
    assert!(
        (part_loss - clean_loss).abs() <= clean_loss * 0.10,
        "partitioned loss {part_loss} drifted over 10% from fault-free {clean_loss}"
    );

    // Satellite: per-link delivery stats in the live metrics JSON.
    let metrics = fs::read_to_string(&mjson).expect("metrics json exists");
    for field in [
        "\"network\"",
        "\"latency_p50_ms\"",
        "\"latency_p99_ms\"",
        "\"deliveries\"",
        // Transport health counters ride in the same snapshot. A pure
        // Sim-mode run keeps them present-but-zero: the schema is shared
        // with `photon serve`, which fills them in for real.
        "\"transport\"",
        "\"reconnects\"",
        "\"heartbeat_misses\"",
        "\"session_resumes\"",
        "\"coordinator_restarts\"",
        "\"reconnects_by_client\"",
    ] {
        assert!(metrics.contains(field), "metrics json misses {field}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Acceptance (b): a below-quorum partition (3 of 4 clients severed)
/// drives the aggregator into degraded mode — rounds record telemetry
/// but commit nothing — and it recovers automatically on heal, with the
/// counters matching. An unhealed partition stays degraded for good.
#[test]
fn below_quorum_partition_degrades_and_recovers() {
    let mut cfg = tiny_federation(4);
    cfg.seed = 13;
    cfg.allow_partial_results = true;
    cfg.network = Some(NetworkConfig::default());

    let spec = FaultSpec::parse("partition@r1-r3:0|1.2.3,seed=5").expect("partition spec parses");
    let injector = spec.plan(cfg.population, 5);
    let (mut fed, _) = build_iid_federation(&cfg, TOKENS).unwrap();
    let mut records = Vec::new();
    let mut params_after = Vec::new();
    for _ in 0..5 {
        records.push(
            fed.aggregator
                .run_round_with(&mut fed.clients, Some(&injector))
                .unwrap(),
        );
        params_after.push(fed.aggregator.params().to_vec());
    }
    assert!(!records[0].degraded);
    assert!(records[1].degraded && records[2].degraded);
    assert!(!records[3].degraded && !records[4].degraded);
    assert_eq!(records[1].unreachable, 3);
    // Degraded rounds commit nothing: params frozen until quorum returns.
    assert_eq!(
        params_after[0], params_after[2],
        "degraded rounds must not commit"
    );
    assert_ne!(
        params_after[2], params_after[3],
        "healed round resumes training"
    );
    let faults = fed.aggregator.telemetry().fault_counters();
    assert_eq!(faults.degraded_rounds, 2);
    assert_eq!(faults.degraded_recoveries, 1);
    assert_eq!(faults.partition_drops, 6, "3 severed clients over 2 rounds");

    // Without a heal round the aggregator never recovers.
    let spec = FaultSpec::parse("partition@r1:*|1.2.3,seed=5").expect("partition spec parses");
    let injector = spec.plan(cfg.population, 4);
    let (mut fed, _) = build_iid_federation(&cfg, TOKENS).unwrap();
    for _ in 0..4 {
        fed.aggregator
            .run_round_with(&mut fed.clients, Some(&injector))
            .unwrap();
    }
    let faults = fed.aggregator.telemetry().fault_counters();
    assert_eq!(faults.degraded_rounds, 3);
    assert_eq!(faults.degraded_recoveries, 0);
}

fn duplicating_network(dup_rate: f64) -> FederationConfig {
    let mut cfg = tiny_federation(4);
    cfg.seed = 37;
    cfg.allow_partial_results = true;
    cfg.network = Some(NetworkConfig {
        profile: LinkProfile {
            base_latency_ms: 15,
            jitter_ms: 5,
            bandwidth_kbps: 64,
            dup_rate,
        },
        ..NetworkConfig::default()
    });
    cfg
}

/// Acceptance (c): a duplicating link never double-applies an update. Toggling the duplication rate perturbs
/// nothing but the duplicates (fixed per-link draw count), so the
/// parameter trajectory matches the duplicate-free run bit for bit.
#[test]
fn duplicating_links_never_double_apply() {
    let run = |cfg: &FederationConfig| {
        let (mut fed, _) = build_iid_federation(cfg, TOKENS).unwrap();
        for _ in 0..5 {
            fed.aggregator.run_round(&mut fed.clients).unwrap();
        }
        let faults = fed.aggregator.telemetry().fault_counters();
        (fed.aggregator.params().to_vec(), faults)
    };
    let (clean_params, clean_faults) = run(&duplicating_network(0.0));
    let (dup_params, dup_faults) = run(&duplicating_network(0.6));
    assert_eq!(clean_faults.link_duplicates, 0);
    assert!(
        dup_faults.link_duplicates > 0,
        "no duplicates were generated"
    );
    assert_eq!(
        dup_faults.dup_drops, dup_faults.link_duplicates,
        "every duplicate delivery must be dropped by dedup"
    );
    assert_eq!(
        clean_params, dup_params,
        "duplicate deliveries must never double-apply an update"
    );
}

/// The buffered semi-sync path is equally immune: duplicate deliveries
/// are rejected before entering the staleness-weighted buffer.
#[test]
fn buffered_path_rejects_duplicate_deliveries() {
    let base = |dup_rate: f64| {
        let mut cfg = duplicating_network(dup_rate);
        cfg.seed = 41;
        cfg.membership = Some(MembershipConfig::default());
        cfg.buffer = Some(BufferConfig {
            quorum: 4,
            ..BufferConfig::default()
        });
        cfg
    };
    let run = |cfg: &FederationConfig| {
        let (mut fed, _) = build_iid_federation(cfg, TOKENS).unwrap();
        for _ in 0..5 {
            fed.aggregator.run_round(&mut fed.clients).unwrap();
        }
        (
            fed.aggregator.params().to_vec(),
            fed.aggregator.telemetry().fault_counters(),
        )
    };
    let (clean_params, _) = run(&base(0.0));
    let (dup_params, dup_faults) = run(&base(0.6));
    assert!(
        dup_faults.link_duplicates > 0,
        "no duplicates were generated"
    );
    assert_eq!(
        clean_params, dup_params,
        "buffered duplicates must never double-apply an update"
    );
}

/// Satellite: a client burning through the retransmit budget is
/// counted in the fault counters, dropped into the partial-update path,
/// and the round still commits.
#[test]
fn jittered_retransmit_exhaustion_counts_and_commits() {
    let rounds = 6u64;
    let mut cfg = tiny_federation(4);
    cfg.seed = 19;
    cfg.allow_partial_results = true;
    cfg.retransmit.max_retries = 1;
    let spec = FaultSpec {
        p_corrupt: 0.35,
        // More corrupted transmissions than the budget allows.
        corrupt_attempts_max: 5,
        ..FaultSpec::none(11)
    };
    let injector = spec.plan(cfg.population, rounds);
    let outcome = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &run_opts(rounds, None),
        Some(&injector),
    )
    .expect("run completes despite exhausted links");
    let dropouts: usize = outcome.history.rounds.iter().map(|r| r.dropouts).sum();
    assert!(dropouts > 0, "exhausted budgets should surface as dropouts");
    let faults = outcome.federation.aggregator.telemetry().fault_counters();
    assert_eq!(faults.link_dropouts as usize, dropouts);
    assert_eq!(
        outcome.history.rounds.len(),
        rounds as usize,
        "every round must commit"
    );
    assert_eq!(outcome.rollbacks, 0);
}

/// Satellite: a torn checkpoint (every file in it truncated) must not kill a
/// resume — the driver detects the corruption and falls back to a clean
/// start, reproducing the uninterrupted run exactly.
#[test]
fn corrupt_checkpoint_resume_restarts_cleanly() {
    let mut cfg = tiny_federation(3);
    cfg.seed = 23;
    let opts = |rounds: u64, dir: PathBuf, resume: bool| TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 0,
            stop_below: None,
        },
        checkpoint_dir: Some(dir),
        checkpoint_every: 2,
        recovery_budget: 2,
        resume,
        metrics_json: None,
    };
    let dir = tmp_dir("torn-resume");
    run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts(3, dir.clone(), false),
        None,
    )
    .expect("first leg completes");
    // Tear the checkpoint: cut whatever the save published in half.
    let published: Vec<_> = fs::read_dir(&dir).expect("checkpoint dir").collect();
    assert!(!published.is_empty(), "the first leg saved a checkpoint");
    for entry in published {
        let path = entry.expect("dir entry").path();
        let bytes = fs::read(&path).expect("checkpoint file");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    }

    let resumed = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts(5, dir.clone(), true),
        None,
    )
    .expect("resume falls back instead of failing");
    let straight = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts(5, tmp_dir("torn-straight"), false),
        None,
    )
    .expect("control run completes");
    assert_eq!(
        resumed.federation.aggregator.params(),
        straight.federation.aggregator.params(),
        "fallback restart must match an uninterrupted run"
    );
    assert_eq!(resumed.history.rounds.len(), 5);
    let _ = fs::remove_dir_all(&dir);
}

/// Acceptance (d): the full chaos stack — partitions, pinned slow links,
/// duplication and the adaptive deadline
/// — replays byte-identically under the simulated clock.
#[test]
fn same_seed_network_chaos_traces_are_byte_identical() {
    let mut traces = Vec::new();
    for run in 0..2 {
        let dir = tmp_dir(&format!("net-trace-{run}"));
        let jsonl = dir.join("trace.jsonl");
        let recorder = Recorder::start(TraceConfig {
            jsonl: Some(jsonl.clone()),
            prometheus: None,
            kernel_events: false,
            clock: ClockMode::Sim,
        })
        .expect("tracing initializes");

        let mut cfg = tiny_federation(4);
        cfg.seed = 29;
        cfg.allow_partial_results = true;
        cfg.network = Some(NetworkConfig {
            profile: LinkProfile {
                base_latency_ms: 25,
                jitter_ms: 10,
                bandwidth_kbps: 32,
                dup_rate: 0.3,
            },
            ..NetworkConfig::default()
        });
        cfg.adaptive_deadline = Some(AdaptiveDeadlineConfig {
            percentile: 0.9,
            floor_ms: 50,
            ceiling_ms: 2_000,
        });
        let spec = FaultSpec::parse(
            "partition@r1-r3:*|~2,slowlink@r1c0,straggle=0.15,straggle-ms=300,seed=13",
        )
        .expect("chaos spec parses");
        let injector = spec.plan(cfg.population, 4);
        let opts = TrainingOptions {
            run: RunOptions {
                rounds: 4,
                eval_every: 2,
                eval_windows: 4,
                stop_below: None,
            },
            checkpoint_dir: Some(dir.join("ckpt")),
            checkpoint_every: 2,
            recovery_budget: 2,
            resume: false,
            metrics_json: None,
        };
        recorder
            .scope(|| {
                run_training(
                    || build_iid_federation(&cfg, TOKENS),
                    &opts,
                    Some(&injector),
                )
            })
            .expect("chaos run completes");
        recorder.flush().expect("final flush succeeds");
        traces.push(fs::read_to_string(&jsonl).expect("trace file exists"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        traces[0].contains("net_partition"),
        "partition instants missing from the trace"
    );
    assert_eq!(traces[0], traces[1], "same-seed chaos traces differ");
}
