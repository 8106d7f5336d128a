//! Seeded chaos and crash-recovery integration tests: fault schedules
//! replay bit-identically, training under faults stays close to the
//! fault-free trajectory, and checkpoint/restore — including the server
//! optimizer's state and full aggregator crashes — reproduces the
//! uninterrupted run exactly.

use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{
    load_checkpoint, run_training, Aggregator, FaultEvent, FaultPlan, FaultSpec, Federation, Tally,
    Telemetry, TrainingOptions,
};
use photon_fedopt::ServerOptKind;
use photon_tests::tiny_federation;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("photon-chaos-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn chaos_spec() -> FaultSpec {
    FaultSpec {
        p_crash: 0.15,
        p_straggle: 0.15,
        straggle_ms_max: 200,
        p_corrupt: 0.1,
        corrupt_attempts_max: 2,
        p_agg_crash: 0.0,
        ..FaultSpec::none(9)
    }
}

#[test]
fn diloco_resume_requires_server_opt_state() {
    // DiLoCo's outer Nesterov momentum is part of the training state: a
    // restore that carries it reproduces the uninterrupted run exactly,
    // and one that drops it (a params-only checkpoint) diverges.
    let mut cfg = tiny_federation(3);
    cfg.server_opt = ServerOptKind::diloco_default();
    cfg.seed = 33;

    let (mut straight, _) = build_iid_federation(&cfg, 3_000).unwrap();
    for _ in 0..6 {
        straight
            .aggregator
            .run_round(&mut straight.clients)
            .unwrap();
    }

    let (mut first_half, _) = build_iid_federation(&cfg, 3_000).unwrap();
    for _ in 0..3 {
        first_half
            .aggregator
            .run_round(&mut first_half.clients)
            .unwrap();
    }
    let dir = tmp_dir("diloco-resume");
    first_half.aggregator.save_checkpoint(&dir).unwrap();

    // Restore WITH optimizer state into a freshly built federation.
    let mut ckpt = load_checkpoint(&dir).unwrap();
    assert!(
        ckpt.server_opt.is_some(),
        "checkpoint should carry optimizer state"
    );
    let (mut resumed, _) = build_iid_federation(&cfg, 3_000).unwrap();
    resumed.aggregator.restore(ckpt.clone()).unwrap();
    for _ in 0..3 {
        resumed.aggregator.run_round(&mut resumed.clients).unwrap();
    }
    assert_eq!(
        straight.aggregator.params(),
        resumed.aggregator.params(),
        "resume with optimizer state must be bit-identical"
    );

    // Restore WITHOUT optimizer state: momentum resets, trajectory drifts.
    let (mut amnesiac, _) = build_iid_federation(&cfg, 3_000).unwrap();
    ckpt.server_opt = None;
    amnesiac.aggregator.restore(ckpt).unwrap();
    for _ in 0..3 {
        amnesiac
            .aggregator
            .run_round(&mut amnesiac.clients)
            .unwrap();
    }
    assert_ne!(
        straight.aggregator.params(),
        amnesiac.aggregator.params(),
        "dropping DiLoCo momentum should change the trajectory"
    );
}

#[test]
fn chaos_runs_replay_bit_identically() {
    let mut cfg = tiny_federation(4);
    cfg.allow_partial_results = true;
    cfg.round_deadline_ms = Some(50);
    cfg.seed = 21;
    let injector = chaos_spec().plan(cfg.population, 6);
    assert!(injector.count(Tally::ClientFaults) > 0);

    let run = |_: ()| {
        let (mut fed, _) = build_iid_federation(&cfg, 3_000).unwrap();
        let mut records = Vec::new();
        for _ in 0..6 {
            records.push(
                fed.aggregator
                    .run_round_with(&mut fed.clients, Some(&injector))
                    .unwrap(),
            );
        }
        (fed.aggregator.params().to_vec(), records)
    };
    let (params_a, records_a) = run(());
    let (params_b, records_b) = run(());
    assert_eq!(params_a, params_b, "chaos replay must be bit-identical");
    assert_eq!(records_a, records_b);
    let turbulence: usize = records_a
        .iter()
        .map(|r| r.dropouts + r.stragglers + r.retransmits as usize)
        .sum();
    assert!(turbulence > 0, "chaos schedule injected nothing observable");
}

#[test]
fn training_under_faults_converges_near_fault_free() {
    let mut cfg = tiny_federation(4);
    cfg.allow_partial_results = true;
    cfg.round_deadline_ms = Some(50);
    cfg.seed = 5;
    let (mut clean, val) = build_iid_federation(&cfg, 3_000).unwrap();
    let (mut faulted, _) = build_iid_federation(&cfg, 3_000).unwrap();
    let injector = chaos_spec().plan(cfg.population, 8);

    for _ in 0..8 {
        clean.aggregator.run_round(&mut clean.clients).unwrap();
        faulted
            .aggregator
            .run_round_with(&mut faulted.clients, Some(&injector))
            .unwrap();
    }
    let seq = 16;
    let eval = |fed: &photon_core::Federation| {
        let mut stream = photon_data::EvalStream::new(&val, seq);
        photon_nn::evaluate_perplexity(&fed.aggregator.global_model(), &mut stream, 16).perplexity
    };
    let clean_ppl = eval(&clean);
    let faulted_ppl = eval(&faulted);
    assert!(clean_ppl.is_finite() && faulted_ppl.is_finite());
    // Dropped and late clients cost some progress but must not derail
    // training: the faulted run stays within 2x of fault-free perplexity.
    assert!(
        faulted_ppl < clean_ppl * 2.0,
        "faulted {faulted_ppl} vs clean {clean_ppl}"
    );
}

#[test]
fn corruption_within_retransmit_budget_is_transparent() {
    // Corrupt-only faults within the retry budget are fully absorbed by
    // the Link: the run's parameters match a fault-free run exactly, and
    // the retries are visible in the round records.
    let mut cfg = tiny_federation(3);
    cfg.seed = 12;
    let spec = FaultSpec {
        p_crash: 0.0,
        p_straggle: 0.0,
        straggle_ms_max: 1,
        p_corrupt: 0.5,
        corrupt_attempts_max: 2,
        p_agg_crash: 0.0,
        ..FaultSpec::none(4)
    };
    let injector = spec.plan(cfg.population, 4);
    assert!(injector.count(Tally::ClientFaults) > 0);

    let (mut clean, _) = build_iid_federation(&cfg, 3_000).unwrap();
    let (mut noisy, _) = build_iid_federation(&cfg, 3_000).unwrap();
    let mut retransmits = 0u64;
    let mut wire_overhead = 0i128;
    for _ in 0..4 {
        let c = clean.aggregator.run_round(&mut clean.clients).unwrap();
        let n = noisy
            .aggregator
            .run_round_with(&mut noisy.clients, Some(&injector))
            .unwrap();
        assert_eq!(n.dropouts, 0);
        retransmits += n.retransmits;
        wire_overhead += n.wire_bytes as i128 - c.wire_bytes as i128;
    }
    assert!(retransmits > 0, "no corruption was scheduled");
    assert!(wire_overhead > 0, "retries must cost wire bytes");
    assert_eq!(clean.aggregator.params(), noisy.aggregator.params());
}

#[test]
fn retransmit_budget_exhaustion_becomes_dropout() {
    let mut cfg = tiny_federation(4);
    cfg.allow_partial_results = true;
    cfg.retransmit.max_retries = 1;
    cfg.seed = 12;
    let spec = FaultSpec {
        p_crash: 0.0,
        p_straggle: 0.0,
        straggle_ms_max: 1,
        p_corrupt: 0.35,
        // More corrupted transmissions than the budget allows.
        corrupt_attempts_max: 5,
        p_agg_crash: 0.0,
        ..FaultSpec::none(11)
    };
    let injector = spec.plan(cfg.population, 6);
    let (mut fed, _) = build_iid_federation(&cfg, 3_000).unwrap();
    let mut dropouts = 0usize;
    for _ in 0..6 {
        let rec = fed
            .aggregator
            .run_round_with(&mut fed.clients, Some(&injector))
            .unwrap();
        dropouts += rec.dropouts;
    }
    assert!(dropouts > 0, "exhausted budgets should surface as dropouts");
    let faults = fed.aggregator.telemetry().fault_counters();
    assert_eq!(faults.link_dropouts as usize, dropouts);
}

#[test]
fn aggregator_crash_recovery_matches_uninterrupted_run() {
    let mut cfg = tiny_federation(3);
    cfg.allow_partial_results = true;
    cfg.round_deadline_ms = Some(50);
    cfg.server_opt = ServerOptKind::diloco_default();
    cfg.seed = 8;
    let rounds = 5;

    // The crashing schedule kills the aggregator after every round; the
    // control schedule shares every client fault but never crashes.
    let mut crashing = chaos_spec();
    crashing.p_agg_crash = 1.0;
    let mut control = crashing.clone();
    control.p_agg_crash = 0.0;
    let crash_inj = crashing.plan(cfg.population, rounds);
    let control_inj = control.plan(cfg.population, rounds);
    assert_eq!(
        crash_inj.count(Tally::Event(FaultEvent::AggCrash)),
        rounds as usize
    );

    let run = |injector: &FaultPlan, dir: PathBuf, budget: u32| {
        let opts = TrainingOptions {
            run: RunOptions {
                rounds,
                eval_every: 0,
                eval_windows: 0,
                stop_below: None,
            },
            checkpoint_dir: Some(dir),
            checkpoint_every: 2,
            recovery_budget: budget,
            resume: false,
            metrics_json: None,
        };
        run_training(|| build_iid_federation(&cfg, 3_000), &opts, Some(injector)).unwrap()
    };
    let crashed = run(&crash_inj, tmp_dir("agg-crash"), 16);
    let control_run = run(&control_inj, tmp_dir("agg-control"), 0);

    assert_eq!(crashed.recoveries, rounds as u32);
    assert_eq!(control_run.recoveries, 0);
    assert_eq!(
        crashed.federation.aggregator.params(),
        control_run.federation.aggregator.params(),
        "recovery must replay the destroyed rounds bit-identically"
    );
    assert_eq!(crashed.history, control_run.history);
}

/// Each recovery reaches the store when it happens, so a run that
/// exhausts its budget has counted every one it made.
#[test]
fn an_exhausted_recovery_budget_counted_its_recoveries() {
    let mut cfg = tiny_federation(3);
    cfg.seed = 8;
    let rounds = 5;
    let mut crashing = chaos_spec();
    crashing.p_agg_crash = 1.0;
    let injector = crashing.plan(cfg.population, rounds);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 0,
            stop_below: None,
        },
        checkpoint_dir: Some(tmp_dir("budget-exhausted")),
        checkpoint_every: 2,
        recovery_budget: 2,
        resume: false,
        metrics_json: None,
    };
    let store = Telemetry::new();
    let build = || {
        let (fed, val) = build_iid_federation(&cfg, 3_000)?;
        let aggregator = Aggregator::with_telemetry(cfg.clone(), store.clone())?;
        Ok((Federation { aggregator, ..fed }, val))
    };
    let failed = run_training(build, &opts, Some(&injector));
    assert!(failed.is_err(), "the budget ran out");
    assert_eq!(store.fault_counters().recoveries, 2);
}

#[test]
fn driver_resume_matches_uninterrupted_run() {
    let mut cfg = tiny_federation(3);
    cfg.server_opt = ServerOptKind::FedMom {
        lr: 1.0,
        momentum: 0.9,
    };
    cfg.seed = 44;
    let opts = |rounds: u64, dir: PathBuf, resume: bool| TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 3,
            eval_windows: 8,
            stop_below: None,
        },
        checkpoint_dir: Some(dir),
        checkpoint_every: 3,
        recovery_budget: 0,
        resume,
        metrics_json: None,
    };

    let full = run_training(
        || build_iid_federation(&cfg, 3_000),
        &opts(6, tmp_dir("resume-full"), false),
        None,
    )
    .unwrap();

    // Simulated process death after 3 rounds: a second driver invocation
    // resumes from the checkpoint directory.
    let dir = tmp_dir("resume-split");
    run_training(
        || build_iid_federation(&cfg, 3_000),
        &opts(3, dir.clone(), false),
        None,
    )
    .unwrap();
    let resumed = run_training(
        || build_iid_federation(&cfg, 3_000),
        &opts(6, dir, true),
        None,
    )
    .unwrap();

    assert_eq!(
        full.federation.aggregator.params(),
        resumed.federation.aggregator.params(),
        "driver resume must be bit-identical to the uninterrupted run"
    );
    // The final round's record (including its evaluation) matches too.
    assert_eq!(full.history.rounds.last(), resumed.history.rounds.last());
}
