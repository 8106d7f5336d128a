//! Reusable experiment drivers behind the paper-reproduction benches.
//!
//! These assemble federations over IID (C4-style) or heterogeneous
//! (Pile-style) synthetic data, run training loops with periodic global
//! evaluation, and provide the synthetic downstream-task suite standing in
//! for the paper's in-context-learning benchmarks (Tables 7–8).

mod downstream;

pub use downstream::{downstream_suite, evaluate_downstream, ClozeTask, DownstreamScore};

use crate::aggregator::iid_clients;
use crate::{
    Aggregator, CentralizedTrainer, DataSource, Federation, FederationConfig, LlmClient, Result,
    RoundRecord, TrainingHistory,
};
use photon_data::{
    build_domain_corpora, partition_by_domain, DomainKind, EvalStream, SyntheticDomain, TokenCorpus,
};
use photon_nn::{evaluate_perplexity, Gpt};
use photon_optim::LrSchedule;
use photon_tensor::SeedStream;
use photon_tokenizer::ByteTokenizer;

/// Options for a driven federated run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Maximum rounds to run.
    pub rounds: u64,
    /// Evaluate the global model every this many rounds (0 = never).
    pub eval_every: u64,
    /// Cap on evaluation windows (keeps experiments fast).
    pub eval_windows: usize,
    /// Stop early once evaluation perplexity reaches this value.
    pub stop_below: Option<f64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            rounds: 20,
            eval_every: 1,
            eval_windows: 32,
            stop_below: None,
        }
    }
}

/// Evaluation sequence length used throughout the experiment drivers.
pub(crate) fn eval_seq(cfg: &FederationConfig) -> usize {
    cfg.model.seq_len.clamp(8, 64)
}

/// Builds a federation over IID shards of web-domain text plus a held-out
/// validation corpus — the C4-style setup (§5.1).
///
/// # Errors
/// Returns an error if the configuration is invalid.
pub fn build_iid_federation(
    cfg: &FederationConfig,
    tokens_per_client: usize,
) -> Result<(Federation, TokenCorpus)> {
    cfg.validate()?;
    let val_tokens = (tokens_per_client / 2).max(2048);
    let (clients, val) = iid_clients(cfg, tokens_per_client, val_tokens);
    Ok((
        Federation {
            aggregator: Aggregator::new(cfg.clone())?,
            clients: clients.collect(),
            joiner_tokens: tokens_per_client,
        },
        val,
    ))
}

/// Builds a Pile-style heterogeneous federation: four synthetic domains
/// split across `cfg.population` clients (§5.1: 4 clients = one source
/// each, 8 = two splits, 16 = four splits). Validation is the union of all
/// domains' held-out tails.
///
/// # Errors
/// Returns an error if the configuration is invalid or the population is
/// not a multiple of four.
pub fn build_heterogeneous_federation(
    cfg: &FederationConfig,
    tokens_per_domain: usize,
) -> Result<(Federation, TokenCorpus)> {
    cfg.validate()?;
    if !cfg.population.is_multiple_of(4) {
        return Err(crate::CoreError::InvalidConfig(
            "heterogeneous federations need a multiple of 4 clients".into(),
        ));
    }
    let mut rng = SeedStream::new(cfg.seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = rng.split("data");
    let val_tokens = (tokens_per_domain / 4).max(1024);
    let mut corpora =
        build_domain_corpora(&tokenizer, tokens_per_domain + val_tokens, &mut data_rng);
    let vals: Vec<TokenCorpus> = corpora
        .iter_mut()
        .map(|c| c.split_validation(val_tokens))
        .collect();
    let val_refs: Vec<&TokenCorpus> = vals.iter().collect();
    let val = TokenCorpus::concat("pile-val", &val_refs);

    let clients_per_domain = cfg.population / 4;
    let shards = partition_by_domain(&corpora, clients_per_domain);
    let clients = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let name = shard.name.clone();
            LlmClient::new(
                i as u32,
                DataSource::new(name, shard),
                None,
                rng.split(&format!("client-{i}")),
            )
        })
        .collect();
    Ok((
        Federation {
            aggregator: Aggregator::new(cfg.clone())?,
            clients,
            joiner_tokens: tokens_per_domain / clients_per_domain.max(1),
        },
        val,
    ))
}

/// Drives a federation for up to `opts.rounds` rounds with periodic global
/// evaluation and optional early stopping.
///
/// # Errors
/// Propagates round failures.
pub fn run_federation(
    fed: &mut Federation,
    val: &TokenCorpus,
    opts: &RunOptions,
) -> Result<TrainingHistory> {
    let mut history = TrainingHistory::new();
    let seq = eval_seq(fed.aggregator.config());
    let mut stream = EvalStream::new(val, seq);
    for r in 0..opts.rounds {
        let mut record = fed.aggregator.run_round(&mut fed.clients)?;
        if opts.eval_every > 0 && (r + 1) % opts.eval_every == 0 {
            let model = fed.aggregator.global_model();
            let report = evaluate_perplexity(&model, &mut stream, opts.eval_windows);
            record.eval_ppl = Some(report.perplexity);
        }
        let reached = record
            .eval_ppl
            .zip(opts.stop_below)
            .is_some_and(|(p, t)| p <= t);
        history.push(record);
        if reached {
            break;
        }
    }
    Ok(history)
}

/// Runs the centralized baseline on the same validation protocol: trains
/// `steps_per_chunk`-step chunks and evaluates between chunks, producing a
/// [`TrainingHistory`] comparable round-for-round with federated runs.
pub fn run_centralized(
    trainer: &mut CentralizedTrainer,
    val: &TokenCorpus,
    chunks: u64,
    steps_per_chunk: u64,
    eval_windows: usize,
    stop_below: Option<f64>,
) -> TrainingHistory {
    let mut history = TrainingHistory::new();
    let seq = trainer.model().config().seq_len.clamp(8, 64);
    let mut stream = EvalStream::new(val, seq);
    for chunk in 0..chunks {
        let mean_loss = trainer.train_steps(steps_per_chunk);
        let report = evaluate_perplexity(trainer.model(), &mut stream, eval_windows);
        history.push(RoundRecord {
            round: chunk,
            cohort: vec![0],
            mean_client_loss: mean_loss,
            eval_ppl: Some(report.perplexity),
            ..RoundRecord::default()
        });
        if stop_below.is_some_and(|t| report.perplexity <= t) {
            break;
        }
    }
    history
}

/// Builds a centralized trainer over the same web-domain distribution the
/// IID federations use, with a held-out validation corpus.
pub fn build_centralized(
    cfg: &FederationConfig,
    batch_size: usize,
    schedule: LrSchedule,
    total_tokens: usize,
    seed: u64,
) -> (CentralizedTrainer, TokenCorpus) {
    let mut rng = SeedStream::new(seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = rng.split("data");
    let domain = SyntheticDomain::preset(DomainKind::Web, &mut data_rng);
    let val_tokens = (total_tokens / 8).max(2048);
    let mut corpus = TokenCorpus::from_domain(
        &domain,
        &tokenizer,
        total_tokens + val_tokens,
        &mut data_rng,
    );
    let val = corpus.split_validation(val_tokens);
    let shard = {
        let tokens = std::sync::Arc::new(corpus.tokens().to_vec());
        let len = tokens.len();
        photon_data::Shard::from_range("cent", tokens, 0, len)
    };
    let stream = Box::new(photon_data::ShardStream::new(shard, rng.split("stream")));
    let trainer = CentralizedTrainer::new(
        cfg.model,
        batch_size,
        cfg.adamw,
        schedule,
        cfg.grad_clip,
        stream,
        seed,
    );
    (trainer, val)
}

/// Scores a trained model on the downstream suite, returning per-task
/// accuracies (the Tables 7–8 substitute).
pub fn downstream_report(model: &Gpt, seed: u64) -> Vec<DownstreamScore> {
    let tokenizer = ByteTokenizer::new();
    let mut rng = SeedStream::new(seed);
    let tasks = downstream_suite(&tokenizer, model.config().seq_len, &mut rng);
    evaluate_downstream(model, &tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_nn::ModelConfig;

    fn tiny_cfg(n: usize) -> FederationConfig {
        let model = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 257,
            seq_len: 16,
        };
        let mut cfg = FederationConfig::quick_demo(model, n);
        cfg.local_steps = 4;
        cfg.local_batch = 2;
        cfg
    }

    #[test]
    fn iid_run_records_history_and_evals() {
        let cfg = tiny_cfg(2);
        let (mut fed, val) = build_iid_federation(&cfg, 2_000).unwrap();
        let opts = RunOptions {
            rounds: 3,
            eval_every: 1,
            eval_windows: 4,
            stop_below: None,
        };
        let history = run_federation(&mut fed, &val, &opts).unwrap();
        assert_eq!(history.len(), 3);
        assert!(history.rounds.iter().all(|r| r.eval_ppl.is_some()));
        assert!(history.final_ppl().unwrap() > 1.0);
    }

    #[test]
    fn early_stop_halts_run() {
        let cfg = tiny_cfg(2);
        let (mut fed, val) = build_iid_federation(&cfg, 2_000).unwrap();
        let opts = RunOptions {
            rounds: 50,
            eval_every: 1,
            eval_windows: 4,
            stop_below: Some(1e9), // trivially satisfied at first eval
        };
        let history = run_federation(&mut fed, &val, &opts).unwrap();
        assert_eq!(history.len(), 1);
    }

    #[test]
    fn heterogeneous_federation_assigns_domains() {
        let cfg = tiny_cfg(4);
        let (fed, val) = build_heterogeneous_federation(&cfg, 3_000).unwrap();
        assert_eq!(fed.clients.len(), 4);
        let names: Vec<&str> = fed.clients.iter().map(|c| c.data_source().name()).collect();
        assert!(names.iter().any(|n| n.contains("arxiv")));
        assert!(names.iter().any(|n| n.contains("prose")));
        assert!(val.len() > 1000);
        // Population must be a multiple of 4.
        let bad = tiny_cfg(3);
        assert!(build_heterogeneous_federation(&bad, 3_000).is_err());
    }

    #[test]
    fn centralized_driver_produces_comparable_history() {
        let cfg = tiny_cfg(1);
        let (mut trainer, val) =
            build_centralized(&cfg, 4, LrSchedule::paper_cosine(3e-3, 5, 500), 5_000, 3);
        let history = run_centralized(&mut trainer, &val, 3, 5, 4, None);
        assert_eq!(history.len(), 3);
        assert!(history.final_ppl().is_some());
    }
}
