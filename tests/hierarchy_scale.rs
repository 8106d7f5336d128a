//! Hierarchical aggregation at registry scale: a run with 10^5 registered
//! clients and a 10^3-client sampled cohort over the sub-aggregator shard
//! tree must complete with the streaming merge's residency bound intact, a
//! mid-run `shardcrash` must degrade only that shard (final loss within
//! 10% of the fault-free run, zero rollbacks) with its orphans re-parented
//! the next round, and the whole faulted run must replay bit-identically —
//! trace included — under the sim clock.

use photon_core::{FaultSpec, Federation, FederationConfig, TargetedFault, TrainingHistory};
use photon_tests::{
    scale_cfg, scale_federation, SCALE_MAX_RESIDENT as MAX_RESIDENT, SCALE_SHARDS as SHARDS,
};
use photon_trace::{ClockMode, Recorder, TraceConfig};
use std::fs;
use std::path::PathBuf;

const REGISTERED: usize = 100_000;
const SAMPLED: usize = 1_000;
const ROUNDS: u64 = 3;

/// A shard-2 crash in round 1, on the salted shard fault columns.
fn crash_spec() -> FaultSpec {
    FaultSpec {
        shards: SHARDS,
        targeted: vec![TargetedFault::parse("shardcrash@r1s2").unwrap()],
        ..FaultSpec::none(23)
    }
}

fn run(cfg: &FederationConfig, spec: &FaultSpec) -> (Federation, TrainingHistory) {
    let inj = spec.plan(cfg.population, ROUNDS);
    let mut fed = scale_federation(cfg);
    let mut history = TrainingHistory::new();
    for _ in 0..ROUNDS {
        history.push(fed.run_round_with(Some(&inj)).expect("round completes"));
    }
    (fed, history)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-hier-scale-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

#[test]
fn shard_crash_at_registry_scale_degrades_one_shard_and_replays_bit_identically() {
    let cfg = scale_cfg(REGISTERED, SAMPLED);
    let dir = tmp_dir("e2e");

    // The faulted run, traced under the sim clock into `trace`.
    let traced = |trace: &PathBuf| {
        let recorder = Recorder::start(TraceConfig {
            jsonl: Some(trace.clone()),
            prometheus: None,
            kernel_events: false,
            clock: ClockMode::Sim,
        })
        .expect("tracing initializes");
        let out = recorder.scope(|| run(&cfg, &crash_spec()));
        recorder.flush().expect("trace flushes");
        out
    };
    let trace_a = dir.join("run-a.jsonl");
    let (fed_a, hist_a) = traced(&trace_a);
    // Identical faulted run B.
    let trace_b = dir.join("run-b.jsonl");
    let (fed_b, hist_b) = traced(&trace_b);

    // Bit-identical replay: parameters, history, and the trace bytes.
    assert_eq!(
        fed_a.aggregator.params(),
        fed_b.aggregator.params(),
        "faulted scale run must replay bit-identically"
    );
    assert_eq!(hist_a, hist_b);
    let bytes_a = fs::read(&trace_a).expect("trace A written");
    let bytes_b = fs::read(&trace_b).expect("trace B written");
    assert!(!bytes_a.is_empty(), "sim-clock trace must record events");
    assert_eq!(bytes_a, bytes_b, "sim-clock traces must be byte-identical");

    // Every round ran the full sampled cohort over the shard tree within
    // the streaming residency bound.
    for r in &hist_a.rounds {
        assert_eq!(r.cohort.len(), SAMPLED, "round {} cohort", r.round);
        // `shards` reports the live tree width: the full tree until the
        // round-1 crash, one fewer from round 2 on.
        let live = if r.round >= 2 { SHARDS - 1 } else { SHARDS };
        assert_eq!(r.shards, live, "round {} tree width", r.round);
        assert!(
            r.peak_resident > 0 && r.peak_resident <= MAX_RESIDENT,
            "round {}: peak resident {} outside (0, {MAX_RESIDENT}]",
            r.round,
            r.peak_resident
        );
        assert!(r.mean_client_loss.is_finite());
        assert!(!r.neutralized, "no watchdog rollback may fire");
    }

    // Round 1: the pinned shardcrash fires and degrades only that shard —
    // the round still commits (not globally degraded) off the surviving
    // shards' aggregates.
    let r1 = &hist_a.rounds[1];
    assert_eq!(r1.shard_crashes, 1, "the pinned shardcrash must fire");
    assert_eq!(r1.shard_hangs, 0);
    assert!(
        !r1.degraded,
        "one dead shard of {SHARDS} must not degrade the whole round"
    );

    // Round 2: the dead shard's orphans re-parent onto live siblings.
    let r2 = &hist_a.rounds[2];
    assert!(
        r2.reparented > 0,
        "round 2 must foster the dead shard's clients"
    );
    assert_eq!(r2.shard_crashes, 0);

    // Zero rollbacks end to end.
    let counters = fed_a.aggregator.telemetry().fault_counters();
    assert_eq!(counters.rollbacks, 0, "a shard crash is never a rollback");
    assert_eq!(counters.shard_crashes, 1);
    assert!(counters.reparented > 0);

    // The crash costs one shard's slice for one round; the final loss must
    // stay within 10% of the fault-free trajectory.
    let quiet = FaultSpec::none(23);
    let (_, hist_q) = run(&cfg, &quiet);
    let faulted_loss = hist_a.rounds.last().unwrap().mean_client_loss;
    let quiet_loss = hist_q.rounds.last().unwrap().mean_client_loss;
    let rel = (faulted_loss - quiet_loss).abs() / quiet_loss;
    assert!(
        rel < 0.10,
        "faulted loss {faulted_loss} strays {rel:.3} from fault-free {quiet_loss}"
    );
    // Fault-free rounds route without fostering.
    assert!(hist_q.rounds.iter().all(|r| r.reparented == 0));

    let _ = fs::remove_dir_all(&dir);
}
