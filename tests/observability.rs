//! End-to-end observability: a seeded chaos run with every sink enabled
//! must produce a line-parseable JSONL trace, a lint-clean Prometheus
//! snapshot and a phase profile whose group shares sum to ~100% with
//! nonzero compute/comms/aggregation buckets; the JSONL trace must replay
//! byte-identically for a fixed seed; and a watchdog rollback must leave
//! `rounds_committed` strictly behind `rounds_seen` (the overcounting
//! regression).

use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{run_training, FaultSpec, TrainingOptions};
use photon_tests::tiny_federation;
use photon_trace::{ClockMode, Phase, PhaseGroup, TraceConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The trace recorder is process-global; every test that touches it runs
/// under this lock and resets it afterwards.
static RECORDER: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 4;
const TOKENS: usize = 3_000;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-obs-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// A short faulted run: crashes, corrupt frames and a straggler over a
/// 3-client federation with partial results allowed.
fn chaos_run(dir: &Path, metrics_json: Option<PathBuf>) -> photon_core::TrainingOutcome {
    let mut cfg = tiny_federation(3);
    cfg.seed = 29;
    cfg.allow_partial_results = true;
    let spec = FaultSpec::parse("crash=0.2,corrupt=0.3,straggle=0.2,straggle-ms=400,seed=9")
        .expect("fault spec parses");
    let injector = spec.plan(cfg.population, ROUNDS);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds: ROUNDS,
            eval_every: 2,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 2,
        recovery_budget: 2,
        resume: false,
        metrics_json,
    };
    run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts,
        Some(&injector),
    )
    .expect("chaos run completes")
}

#[test]
fn chaos_trace_sinks_parse_lint_and_profile() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    photon_trace::reset_for_tests();
    let dir = tmp_dir("sinks");
    let jsonl = dir.join("trace.jsonl");
    let prom = dir.join("metrics.prom");
    let mjson = dir.join("metrics.json");
    photon_trace::init(TraceConfig {
        jsonl: Some(jsonl.clone()),
        prometheus: Some(prom.clone()),
        kernel_events: false,
        clock: ClockMode::Sim,
    })
    .expect("tracing initializes");

    let outcome = chaos_run(&dir, Some(mjson.clone()));
    let summary = photon_trace::flush().expect("final flush succeeds");

    // Every JSONL line is standalone valid JSON with the chrome://tracing
    // core fields.
    let trace = fs::read_to_string(&jsonl).expect("trace file exists");
    let mut lines = 0usize;
    for line in trace.lines() {
        let value = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        let obj = format!("{value:?}");
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(obj.contains(field), "trace line misses {field:?}: {line}");
        }
        lines += 1;
    }
    assert!(
        lines > 10,
        "expected a substantial trace, got {lines} lines"
    );
    assert_eq!(summary.events_dropped, 0, "ring buffer overflowed");

    // The Prometheus snapshot passes the format lint and carries the
    // committed-round gauge.
    let prom_text = fs::read_to_string(&prom).expect("prom file exists");
    photon_trace::lint_prometheus(&prom_text).expect("prometheus snapshot lints");
    assert!(prom_text.contains("photon_gauge{name=\"rounds_committed\"}"));

    // Phase profile: group shares sum to ~100% with nonzero
    // compute/comms/aggregation buckets.
    let total: f64 = PhaseGroup::ALL
        .iter()
        .map(|&g| summary.profile.group_fraction(g))
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "group shares sum to {total}");
    for group in [
        PhaseGroup::Compute,
        PhaseGroup::Comms,
        PhaseGroup::Aggregation,
    ] {
        assert!(
            summary.profile.group_fraction(group) > 0.0,
            "{group:?} bucket is empty"
        );
    }
    assert!(
        summary
            .profile
            .get(Phase::Round)
            .is_some_and(|s| s.count == ROUNDS),
        "expected one round span per round"
    );

    // The live metrics JSON is valid JSON and carries the satellite
    // fields.
    let metrics = fs::read_to_string(&mjson).expect("metrics json exists");
    serde_json::from_str_value(&metrics).expect("metrics json parses");
    for field in [
        "\"compute_threads\"",
        "\"participation_skew\"",
        "\"rounds_committed\"",
        "\"fault_counters\"",
    ] {
        assert!(metrics.contains(field), "metrics json misses {field}");
    }
    assert!(outcome.history.rounds.len() == ROUNDS as usize);

    photon_trace::reset_for_tests();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_chaos_traces_are_byte_identical() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let mut traces = Vec::new();
    for run in 0..2 {
        photon_trace::reset_for_tests();
        let dir = tmp_dir(&format!("identical-{run}"));
        let jsonl = dir.join("trace.jsonl");
        photon_trace::init(TraceConfig {
            jsonl: Some(jsonl.clone()),
            prometheus: None,
            kernel_events: false,
            clock: ClockMode::Sim,
        })
        .expect("tracing initializes");
        chaos_run(&dir, None);
        photon_trace::flush().expect("final flush succeeds");
        photon_trace::reset_for_tests();
        traces.push(fs::read_to_string(&jsonl).expect("trace file exists"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(!traces[0].is_empty());
    assert_eq!(traces[0], traces[1], "same-seed traces differ");
}

#[test]
fn watchdog_rollback_does_not_overcount_committed_rounds() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    photon_trace::reset_for_tests();
    let dir = tmp_dir("rollback-count");
    let rounds = 5u64;
    // One all-NaN update under plain mean aggregation: the watchdog's
    // non-finite check fires at round 2, rolls back and neutralizes it.
    let mut cfg = tiny_federation(3);
    cfg.seed = 17;
    let spec = FaultSpec::parse("nan-update@r2c0,seed=5").expect("fault spec parses");
    let injector = spec.plan(cfg.population, rounds);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 1,
        recovery_budget: 2,
        resume: false,
        metrics_json: None,
    };
    let outcome = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts,
        Some(&injector),
    )
    .expect("run completes through the rollback");
    assert_eq!(outcome.rollbacks, 1, "expected exactly one rollback");
    let telemetry = outcome.federation.aggregator.telemetry();
    assert_eq!(telemetry.rounds_seen(), rounds);
    // The regression: the neutralized round is seen but never committed.
    assert_eq!(telemetry.rounds_committed(), rounds - 1);
    let _ = fs::remove_dir_all(&dir);
}
