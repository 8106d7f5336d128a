//! Elastic-membership integration tests: heavy client churn (seeded joins,
//! permanent leaves, lease expiries and warm rejoins) keeps training finite
//! and close to the static-cohort baseline, replays bit-identically,
//! survives a checkpoint restore with a roster that changed since the
//! checkpoint, and composes buffered semi-synchronous aggregation with the
//! admission guard and Byzantine-robust merging.

use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{
    load_checkpoint, run_training, FaultSpec, FederationConfig, MembershipConfig, TargetedFault,
    TrainingHistory, TrainingOptions,
};
use photon_fedopt::{AggregationKind, BufferConfig, GuardConfig};
use photon_tests::tiny_federation;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("photon-churn-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A federation with elastic membership over the tiny test model.
fn elastic_cfg(n: usize) -> FederationConfig {
    let mut cfg = tiny_federation(n);
    cfg.membership = Some(MembershipConfig::default()); // 3 s lease, 1 s rounds
    cfg.allow_partial_results = true;
    cfg.seed = 17;
    cfg
}

/// Heavy churn: random joins and leaves, plus a pinned crash chain on
/// client 0 long enough (rounds 1..=4 against a 3-round lease) to expire
/// its lease and warm-rejoin it afterwards.
fn churn_spec() -> FaultSpec {
    FaultSpec {
        p_crash: 0.08,
        p_join: 0.2,
        p_leave: 0.04,
        targeted: vec![
            TargetedFault::parse("crash@r1c0").unwrap(),
            TargetedFault::parse("crash@r2c0").unwrap(),
            TargetedFault::parse("crash@r3c0").unwrap(),
            TargetedFault::parse("crash@r4c0").unwrap(),
            TargetedFault::parse("join@r2").unwrap(),
            TargetedFault::parse("leave@r6c1").unwrap(),
        ],
        ..FaultSpec::none(7)
    }
}

fn run_churn(cfg: &FederationConfig, spec: &FaultSpec, rounds: u64) -> (TrainingHistory, Vec<f32>) {
    let inj = spec.plan(cfg.population, rounds);
    let (mut fed, _) = build_iid_federation(cfg, 3_000).unwrap();
    let mut history = TrainingHistory::new();
    for _ in 0..rounds {
        history.push(fed.run_round_with(Some(&inj)).unwrap());
    }
    (history, fed.aggregator.params().to_vec())
}

#[test]
fn heavy_churn_stays_finite_and_near_the_static_baseline() {
    let rounds = 10;
    let cfg = elastic_cfg(4);
    let (history, params) = run_churn(&cfg, &churn_spec(), rounds);

    // Every membership event class actually fired.
    let joined: usize = history.rounds.iter().map(|r| r.joined).sum();
    let departed: usize = history.rounds.iter().map(|r| r.departed).sum();
    let expired: usize = history.rounds.iter().map(|r| r.lease_expired).sum();
    let rejoined: usize = history.rounds.iter().map(|r| r.rejoined).sum();
    assert!(joined > 0, "no warm join fired");
    assert!(departed > 0, "no permanent leave fired");
    assert!(expired > 0, "the pinned crash chain must expire a lease");
    assert!(rejoined > 0, "the expired member must warm-rejoin");

    // The run stays finite under churn.
    assert!(params.iter().all(|p| p.is_finite()));
    for r in &history.rounds {
        assert!(r.mean_client_loss.is_finite(), "round {} diverged", r.round);
    }

    // And lands within 10% of a static-cohort run of the same length.
    let mut static_cfg = cfg.clone();
    static_cfg.membership = None;
    let (mut baseline, _) = build_iid_federation(&static_cfg, 3_000).unwrap();
    let mut base_loss = f32::NAN;
    for _ in 0..rounds {
        base_loss = baseline
            .aggregator
            .run_round(&mut baseline.clients)
            .unwrap()
            .mean_client_loss;
    }
    let churn_loss = history.rounds.last().unwrap().mean_client_loss;
    let rel = (churn_loss - base_loss).abs() / base_loss;
    assert!(
        rel < 0.10,
        "churn final loss {churn_loss} strays {rel:.3} from baseline {base_loss}"
    );
}

#[test]
fn churn_runs_replay_bit_identically() {
    let cfg = elastic_cfg(4);
    let (history_a, params_a) = run_churn(&cfg, &churn_spec(), 8);
    let (history_b, params_b) = run_churn(&cfg, &churn_spec(), 8);
    assert_eq!(params_a, params_b, "elastic replay must be bit-identical");
    assert_eq!(history_a, history_b);
}

#[test]
fn restore_resumes_with_a_roster_that_changed_since_the_checkpoint() {
    // Joins land both before (round 2) and after (round 5) the checkpoint
    // taken at round 4, so the restored run must both re-provision a
    // mid-run joiner recorded in the snapshot and keep admitting new ones.
    let spec = FaultSpec {
        targeted: vec![
            TargetedFault::parse("join@r2").unwrap(),
            TargetedFault::parse("join@r5").unwrap(),
            TargetedFault::parse("leave@r3c1").unwrap(),
            TargetedFault::parse("crash@r1c0").unwrap(),
            TargetedFault::parse("crash@r2c0").unwrap(),
            TargetedFault::parse("crash@r3c0").unwrap(),
            TargetedFault::parse("crash@r4c0").unwrap(),
        ],
        ..FaultSpec::none(5)
    };
    let rounds = 8u64;
    let cfg = elastic_cfg(4);
    let inj = spec.plan(cfg.population, rounds);

    // Uninterrupted reference run, checkpointing at round 4.
    let dir = tmp_dir("roster-restore");
    let (mut straight, _) = build_iid_federation(&cfg, 3_000).unwrap();
    for round in 0..rounds {
        straight.run_round_with(Some(&inj)).unwrap();
        if round == 3 {
            straight.aggregator.save_checkpoint(&dir).unwrap();
        }
    }
    assert!(
        straight.aggregator.roster_len().unwrap() > 4,
        "the roster must have grown mid-run"
    );

    // Fresh world + restore: the snapshot carries the changed roster and
    // sync_roster re-provisions the mid-run joiner deterministically.
    let (mut resumed, _) = build_iid_federation(&cfg, 3_000).unwrap();
    let ckpt = load_checkpoint(&dir).unwrap();
    assert_eq!(ckpt.round, 4);
    let elastic = ckpt.elastic.as_ref().expect("an elastic run's checkpoint");
    assert!(
        elastic.membership.next_id > 4,
        "snapshot must carry the grown roster"
    );
    resumed.aggregator.restore(ckpt).unwrap();
    resumed.sync_roster().unwrap();
    for _ in 4..rounds {
        resumed.run_round_with(Some(&inj)).unwrap();
    }

    assert_eq!(
        straight.aggregator.params(),
        resumed.aggregator.params(),
        "resume with a changed roster must replay the crashed rounds exactly"
    );
    assert_eq!(
        straight.aggregator.roster_len(),
        resumed.aggregator.roster_len()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_driver_replays_churn_through_an_aggregator_crash() {
    // The full crash-recovery driver over an elastic run: an aggregator
    // crash mid-run restores the checkpoint (roster + buffer) and the
    // replayed rounds land on the crash-free trajectory bit-for-bit.
    let spec = FaultSpec {
        p_agg_crash: 0.5,
        targeted: vec![TargetedFault::parse("join@r2").unwrap()],
        ..FaultSpec::none(13)
    };
    let cfg = elastic_cfg(3);
    let rounds = 6u64;
    let inj = spec.plan(cfg.population, rounds);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(tmp_dir("churn-agg-crash")),
        checkpoint_every: 2,
        recovery_budget: 5,
        resume: false,
        metrics_json: None,
    };
    let outcome = run_training(|| build_iid_federation(&cfg, 3_000), &opts, Some(&inj)).unwrap();
    assert!(outcome.recoveries > 0, "the seeded agg crash must fire");

    let (no_crash_history, no_crash_params) = {
        let quiet = FaultSpec {
            p_agg_crash: 0.0,
            ..spec.clone()
        };
        run_churn(&cfg, &quiet, rounds)
    };
    assert_eq!(
        outcome.federation.aggregator.params(),
        &no_crash_params[..],
        "recovery must reproduce the crash-free elastic run exactly"
    );
    assert_eq!(outcome.history, no_crash_history);
    let _ = fs::remove_dir_all(opts.checkpoint_dir.unwrap());
}

#[test]
fn buffered_mode_composes_with_guard_and_trimmed_mean() {
    // FedBuff-style commits under churn, stragglers, a Byzantine client,
    // the admission guard and trimmed-mean merging: no panics, finite
    // losses, at least one deferred round and one commit, bit-identical
    // replay.
    let mut cfg = elastic_cfg(5);
    cfg.buffer = Some(BufferConfig {
        quorum: 7,
        staleness_decay: 0.6,
    });
    cfg.guard = GuardConfig::on();
    cfg.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.2 };
    cfg.round_deadline_ms = Some(150);
    let spec = FaultSpec {
        p_straggle: 0.3,
        straggle_ms_max: 2_500,
        p_crash: 0.05,
        p_join: 0.15,
        p_leave: 0.04,
        targeted: vec![TargetedFault::parse("nan-update@r2c1").unwrap()],
        ..FaultSpec::none(11)
    };
    let run = || run_churn(&cfg, &spec, 10);
    let (history_a, params_a) = run();
    let (history_b, params_b) = run();
    assert_eq!(params_a, params_b, "buffered replay must be bit-identical");
    assert_eq!(history_a, history_b);

    assert!(params_a.iter().all(|p| p.is_finite()));
    let commits = history_a
        .rounds
        .iter()
        .filter(|r| !r.commit_deferred)
        .count();
    let deferrals = history_a
        .rounds
        .iter()
        .filter(|r| r.commit_deferred)
        .count();
    assert!(commits > 0, "no buffered commit fired");
    assert!(
        deferrals > 0,
        "quorum 7 over 5 clients must defer some rounds"
    );
    let stragglers: usize = history_a.rounds.iter().map(|r| r.stragglers).sum();
    assert!(stragglers > 0, "straggler schedule must fire");
    let rejected: usize = history_a.rounds.iter().map(|r| r.guard_rejected).sum();
    assert!(rejected > 0, "the guard must reject the NaN update");
}
