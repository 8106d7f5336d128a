//! End-to-end Byzantine robustness: seeded Byzantine faults on a minority
//! of the cohort must not poison the global model under the robust
//! aggregation rules (guard + trimmed-mean/median), the poisoned runs must
//! replay bit-identically, and a forced divergence under plain mean
//! aggregation must trigger exactly one watchdog rollback while the run
//! still completes.

use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{
    run_training, FaultCounters, FaultPlan, FaultSpec, Federation, FederationConfig,
    TrainingOptions,
};
use photon_data::{EvalStream, TokenCorpus};
use photon_fedopt::{AggregationKind, GuardConfig};
use photon_nn::evaluate_perplexity;
use photon_tests::tiny_federation;
use std::fs;
use std::path::PathBuf;

const ROUNDS: u64 = 5;
const TOKENS: usize = 3_000;

/// One Byzantine client per round on a 4-client cohort (25% < 50%),
/// covering every fault kind: an all-NaN update, a sign flip, and a 50x
/// rescale.
fn byzantine_spec() -> FaultSpec {
    FaultSpec::parse("nan-update@r1c0,sign-flip@r2c1,scale:50@r3c2,seed=21").unwrap()
}

fn guarded_cfg(aggregation: AggregationKind) -> FederationConfig {
    let mut cfg = tiny_federation(4);
    cfg.seed = 33;
    cfg.aggregation = aggregation;
    cfg.guard = GuardConfig::on();
    cfg
}

fn eval_ppl(fed: &Federation, val: &TokenCorpus) -> f64 {
    let seq = fed.aggregator.config().model.seq_len.clamp(8, 64);
    let mut stream = EvalStream::new(val, seq);
    evaluate_perplexity(&fed.aggregator.global_model(), &mut stream, 8).perplexity
}

/// Runs `ROUNDS` rounds, asserting every global parameter stays finite
/// after every round; returns the final parameters, the final validation
/// perplexity and the telemetry fault counters.
fn run_guarded(
    cfg: &FederationConfig,
    injector: Option<&FaultPlan>,
) -> (Vec<f32>, f64, FaultCounters) {
    let (mut fed, val) = build_iid_federation(cfg, TOKENS).expect("federation builds");
    for _ in 0..ROUNDS {
        fed.aggregator
            .run_round_with(&mut fed.clients, injector)
            .expect("round succeeds");
        assert!(
            fed.aggregator.params().iter().all(|p| p.is_finite()),
            "non-finite global parameter after round {}",
            fed.aggregator.round()
        );
    }
    let ppl = eval_ppl(&fed, &val);
    let counters = fed.aggregator.telemetry().fault_counters();
    (fed.aggregator.params().to_vec(), ppl, counters)
}

#[test]
fn robust_rules_absorb_a_byzantine_minority() {
    let spec = byzantine_spec();
    for aggregation in [
        AggregationKind::TrimmedMean { trim_ratio: 0.2 },
        AggregationKind::Median,
    ] {
        let cfg = guarded_cfg(aggregation);
        let injector = spec.plan(cfg.population, ROUNDS);

        let (poisoned, poisoned_ppl, counters) = run_guarded(&cfg, Some(&injector));
        let (baseline, baseline_ppl, _) = run_guarded(&cfg, None);

        // (a) finiteness is asserted per-round inside run_guarded; the
        // final parameters must also differ from an untouched model only
        // by bounded amounts — compare losses, not raw params.
        let poisoned_loss = poisoned_ppl.ln();
        let baseline_loss = baseline_ppl.ln();
        assert!(
            (poisoned_loss - baseline_loss).abs() <= 0.10 * baseline_loss,
            "{aggregation:?}: poisoned loss {poisoned_loss:.4} strays more \
             than 10% from fault-free {baseline_loss:.4}"
        );
        assert_ne!(
            poisoned.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            baseline.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "{aggregation:?}: faults should leave some trace on the run"
        );

        // The guard saw each attack: the NaN update is rejected for
        // non-finiteness, the sign flip as a direction outlier, and the
        // rescale is clipped back to the median norm envelope.
        assert!(counters.rejected_nonfinite >= 1, "{aggregation:?}: nan");
        assert!(counters.rejected_outliers >= 1, "{aggregation:?}: flip");
        assert!(counters.norm_clipped >= 1, "{aggregation:?}: scale");

        // (c) the poisoned run replays bit-identically from the same seed.
        let (replay, replay_ppl, _) = run_guarded(&cfg, Some(&injector));
        assert_eq!(
            poisoned.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            replay.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "{aggregation:?}: poisoned run is not replayable"
        );
        assert_eq!(poisoned_ppl.to_bits(), replay_ppl.to_bits());
    }
}

#[test]
fn forced_divergence_rolls_back_exactly_once() {
    let dir: PathBuf = std::env::temp_dir()
        .join("photon-byzantine-tests")
        .join("rollback");
    let _ = fs::remove_dir_all(&dir);

    // Plain mean with the guard off: the all-NaN update at round 2 reaches
    // the aggregate, the watchdog trips on the non-finite norm, and the
    // driver rolls back to the round-2 checkpoint with the round
    // neutralized.
    let mut cfg = tiny_federation(3);
    cfg.seed = 17;
    let spec = FaultSpec::parse("nan-update@r2c0,seed=5").unwrap();
    let injector = spec.plan(cfg.population, ROUNDS);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds: ROUNDS,
            eval_every: 1,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(dir.clone()),
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
    .expect("run completes despite the divergence");

    assert_eq!(outcome.rollbacks, 1, "exactly one watchdog rollback");
    assert_eq!(outcome.recoveries, 0, "no plain crash recoveries");
    let counters = outcome.federation.aggregator.telemetry().fault_counters();
    assert_eq!(counters.rollbacks, 1);
    assert_eq!(outcome.history.len(), ROUNDS as usize);
    assert!(
        outcome.history.rounds[2].neutralized,
        "the diverged round is neutralized in the replay"
    );
    assert!(outcome
        .federation
        .aggregator
        .params()
        .iter()
        .all(|p| p.is_finite()));
    fs::remove_dir_all(&dir).ok();
}
