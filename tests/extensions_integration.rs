//! Integration tests for the §6 extension features: TIES aggregation
//! and telemetry (AggMetrics).

use photon_core::experiments::{build_heterogeneous_federation, run_federation, RunOptions};
use photon_fedopt::AggregationKind;
use photon_tests::tiny_federation;

#[test]
fn ties_aggregation_trains_heterogeneous_federation() {
    let mut cfg = tiny_federation(4);
    cfg.aggregation = AggregationKind::Ties { density: 0.5 };
    let (mut fed, val) = build_heterogeneous_federation(&cfg, 8_000).unwrap();
    let opts = RunOptions {
        rounds: 6,
        eval_every: 2,
        eval_windows: 16,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    let evals: Vec<f64> = history.rounds.iter().filter_map(|r| r.eval_ppl).collect();
    assert!(
        evals.last().unwrap() < evals.first().unwrap(),
        "TIES-aggregated training failed to converge: {evals:?}"
    );
}

#[test]
fn ties_and_mean_agree_when_clients_agree() {
    // With IID data and identical seeds per run, TIES at full density and
    // mean aggregation should produce similar (not identical) trajectories;
    // both must converge.
    use photon_core::experiments::build_iid_federation;
    let run = |aggregation: AggregationKind| {
        let mut cfg = tiny_federation(2);
        cfg.aggregation = aggregation;
        cfg.seed = 11;
        let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
        let opts = RunOptions {
            rounds: 6,
            eval_every: 6,
            eval_windows: 16,
            stop_below: None,
        };
        run_federation(&mut fed, &val, &opts)
            .unwrap()
            .final_ppl()
            .unwrap()
    };
    let mean = run(AggregationKind::Mean);
    let ties = run(AggregationKind::Ties { density: 1.0 });
    assert!(mean < 200.0 && ties < 200.0);
    assert!((mean - ties).abs() / mean < 0.5, "mean={mean} ties={ties}");
}

#[test]
fn telemetry_tracks_every_round() {
    let cfg = tiny_federation(3);
    let (mut fed, val) = build_heterogeneous_federation(&tiny_federation(4), 8_000)
        .or_else(|_| {
            // fall back: heterogeneous needs multiples of 4
            photon_core::experiments::build_iid_federation(&cfg, 4_000)
        })
        .unwrap();
    let opts = RunOptions {
        rounds: 5,
        eval_every: 0,
        eval_windows: 0,
        stop_below: None,
    };
    run_federation(&mut fed, &val, &opts).unwrap();

    let telemetry = fed.aggregator.telemetry().snapshot();
    assert_eq!(telemetry.rounds_seen, 5);
    let stats = &telemetry.clients;
    assert_eq!(stats.len(), fed.clients.len());
    let cfg = fed.aggregator.config();
    let expect_tokens = 5 * cfg.local_steps * (cfg.local_batch * cfg.model.seq_len) as u64;
    for s in stats.values() {
        assert_eq!(s.rounds, 5);
        assert_eq!(s.tokens, expect_tokens);
        assert!(s.mean_loss.is_finite() && s.mean_loss > 0.0);
    }
    // Full participation => perfectly balanced.
    assert_eq!(telemetry.participation_skew, Some(1.0));
}
