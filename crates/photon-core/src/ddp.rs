//! Distributed data parallelism (Algorithm 2) over real OS threads.
//!
//! Each worker holds a full model replica and a private data stream; every
//! step the workers compute local gradients, average them with a real
//! ring-allreduce (`photon-comms`), and apply identical optimizer updates.
//! Because the reduced gradient is bitwise identical on every rank, the
//! replicas stay exactly synchronized — which the implementation asserts.
//!
//! This module serves both the centralized baseline and the RDMA branch of
//! the LLM client's local pipeline (Algorithm 1, L.16–18).

use photon_comms::{ring_allreduce_group, RingWorker};
use photon_data::{Batch, TokenStream};
use photon_nn::{Activations, Gpt, ModelConfig};
use photon_optim::{clip_global_norm, AdamW, AdamWConfig, LrSchedule, Optimizer};
use photon_tensor::ops::pool;

/// Configuration for one DDP training segment.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Model architecture.
    pub model: ModelConfig,
    /// Micro-batch per worker.
    pub per_worker_batch: usize,
    /// Sequence length for training batches.
    pub seq_len: usize,
    /// Optimizer steps to run.
    pub steps: u64,
    /// Global step offset (so LR schedules continue across rounds).
    pub start_step: u64,
    /// AdamW hyperparameters.
    pub adamw: AdamWConfig,
    /// Learning-rate schedule (indexed by global step).
    pub schedule: LrSchedule,
    /// Optional global-norm gradient clipping.
    pub grad_clip: Option<f32>,
    /// FedProx proximal coefficient μ: adds `μ (w − w_start)` to gradients,
    /// anchoring local training to the received global model.
    pub fedprox_mu: Option<f32>,
}

/// Aggregate statistics from a DDP segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdpReport {
    /// Mean loss across all workers and steps.
    pub mean_loss: f32,
    /// Total tokens consumed (all workers).
    pub tokens: u64,
    /// Optimizer steps taken (per worker).
    pub steps: u64,
}

/// One replica's training segment: `cfg.steps` steps of `opt` from
/// `params` over `stream`, gradients averaged over `ring` when there is
/// one. Returns the trained parameters and the mean loss.
pub(crate) fn train_replica(
    params: &[f32],
    cfg: &DdpConfig,
    opt: &mut AdamW,
    mut stream: Box<dyn TokenStream>,
    mut ring: Option<RingWorker>,
) -> (Vec<f32>, f32) {
    let mut model = Gpt::from_params(cfg.model, params.to_vec());
    let mut acts = Activations::new(&cfg.model, cfg.per_worker_batch, cfg.seq_len);
    let mut grads = model.grad_buffer();
    let mut batch = Batch::zeros(cfg.per_worker_batch, cfg.seq_len);
    let mut loss_sum = 0.0f64;
    for i in 0..cfg.steps {
        stream.next_batch(&mut batch);
        grads.iter_mut().for_each(|g| *g = 0.0);
        let loss = model
            .forward(&batch.inputs, Some(&batch.targets), &mut acts)
            .expect("targets provided");
        loss_sum += loss as f64;
        model.backward(&batch.inputs, &batch.targets, &mut acts, &mut grads);
        if let Some(mu) = cfg.fedprox_mu {
            // The proximal anchor is the received model itself.
            for ((g, &wi), &ai) in grads.iter_mut().zip(model.params()).zip(params) {
                *g += mu * (wi - ai);
            }
        }
        if let Some(ring) = ring.as_mut() {
            ring.allreduce_mean(&mut grads);
        }
        if let Some(max_norm) = cfg.grad_clip {
            clip_global_norm(&mut grads, max_norm);
        }
        let lr = cfg.schedule.lr_at(cfg.start_step + i);
        opt.step(model.params_mut(), &grads, lr);
    }
    let mean = (loss_sum / cfg.steps.max(1) as f64) as f32;
    (model.into_params(), mean)
}

/// Runs synchronous data-parallel training from `params`, returning the
/// updated parameters and a report. One worker per stream, each on a
/// thread of its own (the ring all-reduce needs them concurrent) under an
/// equal share of the caller's compute context — except that a single
/// stream whose caller has one core to give (execution width 1: a client
/// lane on a full machine) trains on the caller, where a thread of its own
/// could only take turns with it.
///
/// # Panics
/// Panics if `streams` is empty, a worker panics, or the replicas
/// desynchronize (which would indicate a collective bug).
pub fn ddp_train(
    params: &[f32],
    cfg: &DdpConfig,
    mut streams: Vec<Box<dyn TokenStream>>,
) -> (Vec<f32>, DdpReport) {
    assert!(!streams.is_empty(), "ddp needs at least one worker");
    let n = streams.len();
    // Stateless: every replica starts the segment with a fresh optimizer.
    let replica = |stream, ring| {
        let mut opt = AdamW::new(cfg.adamw, params.len());
        train_replica(params, cfg, &mut opt, stream, ring)
    };
    let ctx = pool::Context::current().split(n);
    // At width > 1 a single stream keeps its thread: the one-client-per-
    // process path trains measurably faster with the round's model-sized
    // buffers off the connection thread (DESIGN.md §4.8).
    let mut results: Vec<(Vec<f32>, f32)> = if n == 1 && ctx.width == 1 {
        vec![replica(streams.pop().expect("one stream"), None)]
    } else {
        #[cfg(test)]
        crate::thread_census::note_spawned(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .into_iter()
                .zip(ring_allreduce_group(n))
                .map(|(stream, ring)| {
                    let ctx = &ctx;
                    scope.spawn(move || ctx.enter(|| replica(stream, Some(ring))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ddp worker panicked"))
                .collect()
        })
    };

    // Replicas must be exactly synchronized: the ring produces bitwise
    // identical reduced gradients and the optimizers are deterministic.
    let (reference, _) = &results[0];
    for (p, _) in &results[1..] {
        assert_eq!(
            p.len(),
            reference.len(),
            "ddp replicas desynchronized (length)"
        );
        assert!(
            p.iter().zip(reference).all(|(a, b)| a == b),
            "ddp replicas desynchronized (values)"
        );
    }

    let mean_loss = results.iter().map(|(_, l)| *l).sum::<f32>() / n as f32;
    let tokens = cfg.steps * (n * cfg.per_worker_batch * cfg.seq_len) as u64;
    let (params_out, _) = results.swap_remove(0);
    (
        params_out,
        DdpReport {
            mean_loss,
            tokens,
            steps: cfg.steps,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_data::Shard;
    use photon_data::ShardStream;
    use photon_optim::ScheduleKind;
    use photon_tensor::SeedStream;
    use std::sync::Arc;

    fn streams(n: usize, tokens: usize, seed: u64) -> Vec<Box<dyn TokenStream>> {
        let shard = Shard::from_range(
            "t",
            Arc::new((0..tokens as u32).map(|i| i % 17).collect()),
            0,
            tokens,
        );
        shard
            .split(n)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Box::new(ShardStream::new(s, SeedStream::new(seed + i as u64)))
                    as Box<dyn TokenStream>
            })
            .collect()
    }

    fn tiny_cfg(steps: u64) -> DdpConfig {
        DdpConfig {
            model: photon_nn::ModelConfig {
                n_layers: 1,
                d_model: 16,
                n_heads: 2,
                exp_ratio: 2,
                vocab_size: 17,
                seq_len: 8,
            },
            per_worker_batch: 2,
            seq_len: 8,
            steps,
            start_step: 0,
            adamw: AdamWConfig::default(),
            schedule: LrSchedule::new(ScheduleKind::Constant, 1e-2, 1e-3, 1, 1000),
            grad_clip: Some(1.0),
            fedprox_mu: None,
        }
    }

    fn init_params(cfg: &DdpConfig) -> Vec<f32> {
        Gpt::new(cfg.model, &mut SeedStream::new(0)).into_params()
    }

    #[test]
    fn training_reduces_loss_and_stays_synchronized() {
        let cfg = tiny_cfg(25);
        let params = init_params(&cfg);
        let (out, report) = ddp_train(&params, &cfg, streams(4, 400, 7));
        assert_eq!(out.len(), params.len());
        assert!(report.mean_loss.is_finite());
        assert_eq!(report.steps, 25);
        assert_eq!(report.tokens, 25 * 4 * 2 * 8);
        // Loss should drop measurably from ln(17) ≈ 2.83 on Markov-free data.
        assert!(report.mean_loss < 2.83);
    }

    #[test]
    fn single_worker_matches_plain_training_shape() {
        let cfg = tiny_cfg(10);
        let params = init_params(&cfg);
        let (out, report) = ddp_train(&params, &cfg, streams(1, 200, 3));
        assert_ne!(out, params);
        assert_eq!(report.steps, 10);
    }

    #[test]
    fn a_single_stream_on_a_one_core_caller_gets_no_thread() {
        use crate::thread_census::spawned;
        let cfg = tiny_cfg(2);
        let params = init_params(&cfg);
        let run = |width, n| {
            let before = spawned();
            let out = pool::Context {
                chunks: 4,
                width,
                ..pool::Context::current()
            }
            .enter(|| ddp_train(&params, &cfg, streams(n, 200, 3)));
            (out, spawned() - before)
        };
        let (on_the_caller, threads) = run(1, 1);
        assert_eq!(threads, 0, "a lane that owns one core trains on itself");
        let (on_a_thread, threads) = run(4, 1);
        assert_eq!(threads, 1);
        assert_eq!(
            on_the_caller, on_a_thread,
            "where it runs is not arithmetic"
        );

        // Two streams are concurrent at any width (the ring needs it), and
        // their arithmetic depends on the caller's chunk budget over the
        // replica count, never on its execution width.
        let (narrow, threads) = run(1, 2);
        assert_eq!(threads, 2);
        assert_eq!(narrow, run(4, 2).0);
    }

    #[test]
    fn worker_count_changes_effective_batch_not_steps() {
        let cfg = tiny_cfg(5);
        let params = init_params(&cfg);
        let (_, r2) = ddp_train(&params, &cfg, streams(2, 300, 1));
        let (_, r4) = ddp_train(&params, &cfg, streams(4, 300, 1));
        assert_eq!(r4.tokens, 2 * r2.tokens);
        assert_eq!(r2.steps, r4.steps);
    }

    #[test]
    fn fedprox_anchors_local_training() {
        // A large proximal coefficient keeps the local model close to the
        // received global weights.
        let free_cfg = tiny_cfg(20);
        let mut prox_cfg = tiny_cfg(20);
        prox_cfg.fedprox_mu = Some(10.0);
        let params = init_params(&free_cfg);
        let (free, _) = ddp_train(&params, &free_cfg, streams(1, 300, 5));
        let (prox, _) = ddp_train(&params, &prox_cfg, streams(1, 300, 5));
        let dist = |a: &[f32]| -> f32 {
            a.iter()
                .zip(&params)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&prox) < dist(&free) * 0.9,
            "proximal term failed to anchor: {} vs {}",
            dist(&prox),
            dist(&free)
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_streams_panics() {
        let cfg = tiny_cfg(1);
        let params = init_params(&cfg);
        ddp_train(&params, &cfg, vec![]);
    }
}
