//! End-to-end federation tests spanning every crate: data generation,
//! tokenization, model training, Link framing, aggregation, server
//! optimization, checkpointing and recovery.

use photon_core::experiments::{
    build_heterogeneous_federation, build_iid_federation, run_federation, RunOptions,
};
use photon_core::{load_checkpoint, save_checkpoint, Aggregator, CohortSpec};
use photon_fedopt::ServerOptKind;
use photon_tests::tiny_federation;

#[test]
fn iid_federation_converges_end_to_end() {
    let cfg = tiny_federation(4);
    let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
    let opts = RunOptions {
        rounds: 8,
        eval_every: 1,
        eval_windows: 16,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    let first = history.rounds[0].eval_ppl.unwrap();
    let last = history.final_ppl().unwrap();
    assert!(
        last < first * 0.7,
        "federation failed to converge: {first} -> {last}"
    );
    // Every round exchanged real Link traffic.
    assert!(history.rounds.iter().all(|r| r.wire_bytes > 0));
}

#[test]
fn full_feature_stack_trains_together() {
    // Heterogeneous data + compression + secure aggregation + FedMom, all
    // at once — the paper's full §4 feature set in a single run.
    let mut cfg = tiny_federation(4);
    cfg.compress_link = true;
    cfg.secure_agg = true;
    cfg.server_opt = ServerOptKind::FedMom {
        lr: 1.0,
        momentum: 0.3,
    };
    let (mut fed, val) = build_heterogeneous_federation(&cfg, 8_000).unwrap();
    let opts = RunOptions {
        rounds: 6,
        eval_every: 2,
        eval_windows: 16,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    let evals: Vec<f64> = history.rounds.iter().filter_map(|r| r.eval_ppl).collect();
    assert!(evals.len() >= 2);
    assert!(evals.last().unwrap() < evals.first().unwrap(), "{evals:?}");
}

#[test]
fn checkpoint_recovery_resumes_training() {
    let dir = std::env::temp_dir().join("photon-e2e-ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = tiny_federation(2);
    let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
    let opts = RunOptions {
        rounds: 3,
        eval_every: 1,
        eval_windows: 8,
        stop_below: None,
    };
    let before = run_federation(&mut fed, &val, &opts).unwrap();
    save_checkpoint(&dir, &cfg, fed.aggregator.round(), fed.aggregator.params()).unwrap();

    // A "crashed" aggregator comes back from the checkpoint and keeps
    // improving with the surviving clients.
    let ckpt = load_checkpoint(&dir).unwrap();
    assert_eq!(ckpt.round, 3);
    let mut revived = Aggregator::new(ckpt.config.clone()).unwrap();
    revived.restore(ckpt).unwrap();
    assert_eq!(revived.params(), fed.aggregator.params());

    fed.aggregator = revived;
    let after = run_federation(&mut fed, &val, &opts).unwrap();
    assert!(after.final_ppl().unwrap() <= before.final_ppl().unwrap() * 1.1);
    assert_eq!(fed.aggregator.round(), 6);
}

#[test]
fn partial_participation_covers_population_over_time() {
    let mut cfg = tiny_federation(8);
    cfg.cohort = CohortSpec::Sample { k: 2 };
    let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
    let opts = RunOptions {
        rounds: 12,
        eval_every: 0,
        eval_windows: 0,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    let mut seen = [false; 8];
    for r in &history.rounds {
        assert_eq!(r.cohort.len(), 2);
        for &c in &r.cohort {
            seen[c] = true;
        }
    }
    assert!(
        seen.iter().filter(|&&s| s).count() >= 6,
        "sampling failed to spread across the population: {seen:?}"
    );
}

#[test]
fn diloco_converges_slower_than_photon_per_round() {
    // Table 3's mechanism, end to end: identical data and seeds, only the
    // server optimizer differs.
    let run = |server_opt: ServerOptKind| {
        let mut cfg = tiny_federation(4);
        cfg.server_opt = server_opt;
        cfg.seed = 555;
        let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
        let opts = RunOptions {
            rounds: 8,
            eval_every: 1,
            eval_windows: 16,
            stop_below: None,
        };
        run_federation(&mut fed, &val, &opts).unwrap()
    };
    let photon = run(ServerOptKind::photon_default());
    let diloco = run(ServerOptKind::diloco_default());
    assert!(
        photon.final_ppl().unwrap() < diloco.final_ppl().unwrap(),
        "photon {:?} vs diloco {:?}",
        photon.final_ppl(),
        diloco.final_ppl()
    );
}
