//! The §5.1 claim "our system could train any LLM architecture": the same
//! federation engine trains both the ALiBi (MPT-style) and
//! learned-positions (GPT-2-style) variants end to end.

use photon_core::experiments::{build_iid_federation, run_federation, RunOptions};
use photon_nn::PosEncoding;
use photon_tests::tiny_federation;

fn run(positions: PosEncoding) -> (f64, usize) {
    let mut cfg = tiny_federation(2);
    cfg.positions = positions;
    cfg.seed = 88;
    let (mut fed, val) = build_iid_federation(&cfg, 4_000).unwrap();
    let opts = RunOptions {
        rounds: 6,
        eval_every: 6,
        eval_windows: 16,
        stop_below: None,
    };
    let history = run_federation(&mut fed, &val, &opts).unwrap();
    (history.final_ppl().unwrap(), fed.aggregator.params().len())
}

#[test]
fn both_positional_schemes_train_federated() {
    let (alibi_ppl, alibi_params) = run(PosEncoding::Alibi);
    let (learned_ppl, learned_params) = run(PosEncoding::Learned);
    // Learned positions add a (seq, d) table.
    assert_eq!(
        learned_params - alibi_params,
        16 * 16, // tests::tiny_model: seq_len * d_model
    );
    // Both descend well below the ~257 random-model perplexity within
    // six tiny warm-up rounds.
    assert!(alibi_ppl < 150.0, "{alibi_ppl}");
    assert!(learned_ppl < 150.0, "{learned_ppl}");
}

#[test]
fn learned_positions_survive_checkpoint_roundtrip() {
    use photon_core::{load_checkpoint, save_checkpoint, Aggregator};
    let dir = std::env::temp_dir().join("photon-posenc-ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = tiny_federation(2);
    cfg.positions = PosEncoding::Learned;
    let (mut fed, _val) = build_iid_federation(&cfg, 4_000).unwrap();
    fed.aggregator.run_round(&mut fed.clients).unwrap();
    save_checkpoint(&dir, &cfg, 1, fed.aggregator.params()).unwrap();

    let ckpt = load_checkpoint(&dir).unwrap();
    assert_eq!(ckpt.config.positions, PosEncoding::Learned);
    // from_params infers the scheme from the parameter count.
    let model = photon_nn::Gpt::from_params(ckpt.config.model, ckpt.params.clone());
    assert_eq!(model.pos_encoding(), PosEncoding::Learned);
    // A restored aggregator keeps training.
    let mut revived = Aggregator::new(ckpt.config.clone()).unwrap();
    revived.restore(ckpt).unwrap();
    fed.aggregator = revived;
    fed.aggregator.run_round(&mut fed.clients).unwrap();
}
