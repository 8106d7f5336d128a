//! Checkpoint section matrix: a checkpoint restores into a freshly built
//! aggregator and keeps training whichever sections it carries. There is
//! one file format; a row's `vN` prefix is the generation of the project
//! that introduced the section the row adds (bare parameters, server
//! optimizer state, elastic roster, storage dtype and the shard tree).

use photon_core::experiments::build_iid_federation;
use photon_core::{
    load_checkpoint, save_checkpoint, Checkpoint, FederationConfig, HierarchyConfig,
    MembershipConfig,
};
use photon_fedopt::{BufferConfig, ServerOptKind};
use photon_tests::tiny_federation;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("photon-ckpt-matrix").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A stateful server optimizer, so that losing its momentum is visible.
fn matrix_cfg() -> FederationConfig {
    let mut cfg = tiny_federation(4);
    cfg.seed = 77;
    cfg.server_opt = ServerOptKind::FedMom {
        lr: 1.0,
        momentum: 0.9,
    };
    cfg
}

/// Trains `cfg` for two rounds, saves through the aggregator, restores the
/// loaded checkpoint into a freshly built federation and proves the run
/// keeps training from it. Returns what was loaded.
fn save_restore_and_train(name: &str, cfg: &FederationConfig) -> Checkpoint {
    let dir = tmp_dir(name);
    let (mut fed, _) = build_iid_federation(cfg, 2_000).unwrap();
    fed.run_round().unwrap();
    fed.run_round().unwrap();
    fed.aggregator.save_checkpoint(&dir).unwrap();
    let ckpt = load_checkpoint(&dir).unwrap();
    assert_eq!(ckpt.round, 2);
    assert_eq!(ckpt.params, fed.aggregator.params());
    restore_and_train(&ckpt);
    ckpt
}

fn restore_and_train(ckpt: &Checkpoint) {
    let (mut fed, _) = build_iid_federation(&ckpt.config, 2_000).unwrap();
    fed.aggregator.restore(ckpt.clone()).unwrap();
    fed.sync_roster().unwrap();
    assert_eq!(fed.aggregator.round(), ckpt.round);
    assert_eq!(fed.aggregator.params(), &ckpt.params[..]);

    let record = fed.run_round().unwrap();
    assert_eq!(record.round, ckpt.round);
    assert!(record.mean_client_loss.is_finite());
    assert_eq!(fed.aggregator.round(), ckpt.round + 1);
    assert_ne!(
        fed.aggregator.params(),
        &ckpt.params[..],
        "training must advance past the restored parameters"
    );
}

#[test]
fn v1_bare_checkpoint_restores_into_current_aggregator() {
    // A params-only export carries no optimizer state: the restore warns
    // and starts FedMom's momentum from zero again.
    let cfg = matrix_cfg();
    let dir = tmp_dir("bare");
    let (mut fed, _) = build_iid_federation(&cfg, 2_000).unwrap();
    fed.run_round().unwrap();
    save_checkpoint(&dir, &cfg, 1, fed.aggregator.params()).unwrap();
    let ckpt = load_checkpoint(&dir).unwrap();
    assert!(ckpt.server_opt.is_none() && ckpt.elastic.is_none() && ckpt.hierarchy.is_none());
    restore_and_train(&ckpt);

    fed.aggregator.restore(ckpt).unwrap();
    fed.aggregator.save_checkpoint(&dir).unwrap();
    let momentum = load_checkpoint(&dir).unwrap().server_opt.unwrap();
    assert!(momentum.slots[0].iter().all(|&v| v == 0.0));
}

#[test]
fn v2_opt_state_checkpoint_restores_into_current_aggregator() {
    let ckpt = save_restore_and_train("opt", &matrix_cfg());
    let momentum = ckpt.server_opt.expect("a training run saves its optimizer");
    assert!(momentum.slots[0].iter().any(|&v| v != 0.0));
    assert!(ckpt.elastic.is_none() && ckpt.hierarchy.is_none());
}

#[test]
fn v3_elastic_checkpoint_restores_into_current_aggregator() {
    let mut cfg = matrix_cfg();
    cfg.membership = Some(MembershipConfig::default());
    let ckpt = save_restore_and_train("elastic", &cfg);
    let elastic = ckpt.elastic.expect("an elastic run saves its roster");
    assert_eq!(elastic.membership.next_id, 4);
    assert!(elastic.buffer.is_none() && ckpt.hierarchy.is_none());
}

#[test]
fn v4_current_checkpoint_restores_into_current_aggregator() {
    // Every section at once: optimizer, roster, update buffer, shard tree.
    let mut cfg = matrix_cfg();
    cfg.membership = Some(MembershipConfig::default());
    cfg.buffer = Some(BufferConfig::default());
    cfg.hierarchy = Some(HierarchyConfig {
        shards: 2,
        ..HierarchyConfig::default()
    });
    let ckpt = save_restore_and_train("current", &cfg);
    assert!(ckpt.server_opt.is_some() && ckpt.hierarchy.is_some());
    assert!(ckpt.elastic.expect("roster").buffer.is_some());
}

#[test]
fn v4_bf16_storage_restores_within_half_precision() {
    // Parameters stored in bf16 widen back to f32 master weights within
    // bf16's resolution.
    let mut cfg = matrix_cfg();
    cfg.dtype = photon_tensor::Dtype::Bf16;
    let (fed, _) = build_iid_federation(&cfg, 2_000).unwrap();
    let dir = tmp_dir("bf16");
    fed.aggregator.save_checkpoint(&dir).unwrap();

    let ckpt = load_checkpoint(&dir).unwrap();
    assert_eq!(ckpt.config.dtype, photon_tensor::Dtype::Bf16);
    assert_eq!(ckpt.params.len(), fed.aggregator.params().len());
    for (a, b) in ckpt.params.iter().zip(fed.aggregator.params()) {
        let tolerance = b.abs().max(1e-3) * 0.01; // bf16: ~8 mantissa bits
        assert!(
            (a - b).abs() <= tolerance,
            "bf16 roundtrip drift: {a} vs {b}"
        );
    }
    restore_and_train(&ckpt);
}
