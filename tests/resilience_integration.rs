//! Resilience integration: client dropouts mid-round (§4's
//! parameter-server partial updates) and sporadic availability
//! (§2.1 / Appendix A).

use photon_core::experiments::{build_iid_federation, run_federation, RunOptions};
use photon_core::FaultSpec;
use photon_data::EvalStream;
use photon_fedopt::AvailabilityModel;
use photon_nn::evaluate_perplexity;
use photon_tests::tiny_federation;

#[test]
fn dropouts_fail_the_round_by_default() {
    let cfg = tiny_federation(3);
    let (mut fed, _val) = build_iid_federation(&cfg, 3_000).unwrap();
    let plan = FaultSpec::parse("crash@r0c1").unwrap().plan(3, 1);
    let err = fed.run_round_with(Some(&plan)).unwrap_err();
    assert!(err.to_string().contains("allow_partial_results"), "{err}");
}

#[test]
fn partial_results_aggregate_survivors() {
    let mut cfg = tiny_federation(3);
    cfg.allow_partial_results = true;
    let (mut fed, val) = build_iid_federation(&cfg, 3_000).unwrap();
    let plan = FaultSpec::parse("crash@r0c1,crash@r2c1")
        .unwrap()
        .plan(3, 4);

    let dropouts: Vec<usize> = (0..4)
        .map(|_| fed.run_round_with(Some(&plan)).unwrap().dropouts)
        .collect();
    assert_eq!(dropouts[..3], [1, 0, 1]);
    // Training still converges on the survivors' updates.
    let mut stream = EvalStream::new(&val, cfg.model.seq_len.clamp(8, 64));
    let model = fed.aggregator.global_model();
    assert!(evaluate_perplexity(&model, &mut stream, 16).perplexity < 200.0);
    // Telemetry shows the flaky client participated in fewer rounds.
    let stats = fed.aggregator.telemetry().snapshot().clients;
    assert_eq!(stats["1"].rounds, 2);
    assert_eq!(stats["0"].rounds, 4);
}

#[test]
fn all_clients_down_still_fails() {
    let mut cfg = tiny_federation(2);
    cfg.allow_partial_results = true;
    let (mut fed, _val) = build_iid_federation(&cfg, 3_000).unwrap();
    let plan = FaultSpec::parse("crash@r0c0,crash@r0c1")
        .unwrap()
        .plan(2, 1);
    assert!(fed.run_round_with(Some(&plan)).is_err());
}

#[test]
fn secure_agg_with_partial_rejected() {
    let mut cfg = tiny_federation(2);
    cfg.secure_agg = true;
    cfg.allow_partial_results = true;
    assert!(cfg.validate().is_err());
}

#[test]
fn sporadic_availability_shapes_cohorts() {
    let mut cfg = tiny_federation(8);
    cfg.availability = Some(AvailabilityModel {
        p_down: 0.4,
        p_up: 0.4,
    });
    cfg.seed = 17;
    let (mut fed, val) = build_iid_federation(&cfg, 3_000).unwrap();
    let opts = RunOptions {
        rounds: 10,
        eval_every: 0,
        eval_windows: 0,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    // Cohort sizes vary with availability (full participation nominal, but
    // down clients are excluded).
    let sizes: Vec<usize> = history.rounds.iter().map(|r| r.cohort.len()).collect();
    assert!(
        sizes.iter().any(|&s| s < 8),
        "availability never removed a client: {sizes:?}"
    );
    assert!(sizes.iter().all(|&s| s >= 1));
    // And the run is reproducible.
    let (mut fed2, val2) = build_iid_federation(&cfg, 3_000).unwrap();
    let history2 = run_federation(&mut fed2, &val2, &opts).unwrap();
    let sizes2: Vec<usize> = history2.rounds.iter().map(|r| r.cohort.len()).collect();
    assert_eq!(sizes, sizes2);
}

#[test]
fn availability_with_sampling_respects_k() {
    use photon_core::CohortSpec;
    let mut cfg = tiny_federation(8);
    cfg.cohort = CohortSpec::Sample { k: 3 };
    cfg.availability = Some(AvailabilityModel {
        p_down: 0.2,
        p_up: 0.8,
    });
    let (mut fed, _val) = build_iid_federation(&cfg, 3_000).unwrap();
    for _ in 0..6 {
        let rec = fed.aggregator.run_round(&mut fed.clients).unwrap();
        assert!(rec.cohort.len() <= 3);
        assert!(!rec.cohort.is_empty());
    }
}
