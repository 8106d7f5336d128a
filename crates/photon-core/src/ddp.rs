//! The one local trainer: Algorithm 1's local pipeline (L.16–25) and
//! Algorithm 2's data-parallel baseline, over real OS threads.
//!
//! A [`Replica`] — a model with its activations, gradients and batch,
//! allocated once — is the only place a local optimizer step is written,
//! and [`run_replicas`] is the one runner every local-training path goes
//! through: the single-GPU client, DDP and FSDP replicas, and the
//! sub-federation's nodes. The centralized baseline steps a replica of its
//! own.
//!
//! Data-parallel replicas hold a private data stream each; every step they
//! average their gradients with a real ring-allreduce (`photon-comms`) and
//! apply identical optimizer updates. Because the reduced gradient is
//! bitwise identical on every rank, the replicas stay exactly
//! synchronized — which the runner asserts.

use photon_comms::{ring_allreduce_group, RingWorker};
use photon_data::{Batch, TokenStream};
use photon_nn::{Activations, Gpt, ModelConfig};
use photon_optim::{clip_global_norm, AdamW, AdamWConfig, LrSchedule, Optimizer};
use photon_tensor::ops::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A trained replica's parameters and mean loss.
pub(crate) type Trained = (Vec<f32>, f32);

impl DdpReport {
    /// The report of a `cfg` segment that `trained` replicas ran: the mean
    /// of their losses and the tokens of all of them.
    pub(crate) fn of(cfg: &DdpConfig, trained: &[Trained]) -> Self {
        let n = trained.len();
        DdpReport {
            mean_loss: trained.iter().map(|(_, loss)| loss).sum::<f32>() / n as f32,
            tokens: cfg.steps * (n * cfg.per_worker_batch * cfg.seq_len) as u64,
            steps: cfg.steps,
        }
    }
}

/// A model with its activations, gradients and batch, allocated once: the
/// one place a local optimizer step is written.
pub(crate) struct Replica {
    model: Gpt,
    acts: Activations,
    grads: Vec<f32>,
    batch: Batch,
}

/// What one [`Replica::step`] does around its forward and backward passes.
pub(crate) struct Step<'a> {
    /// Micro-batches whose gradients the step averages (gradient
    /// accumulation; 1 without).
    pub(crate) micro_batches: u32,
    /// Learning rate.
    pub(crate) lr: f32,
    /// Optional global-norm gradient clipping.
    pub(crate) grad_clip: Option<f32>,
    /// FedProx: `μ` and the anchor `w_start`, adding `μ (w − w_start)` to
    /// the gradient.
    pub(crate) prox: Option<(f32, &'a [f32])>,
}

impl Replica {
    /// A replica of `model` training on `(batch, seq_len)` batches.
    pub(crate) fn new(model: Gpt, batch: usize, seq_len: usize) -> Self {
        Replica {
            acts: Activations::new(model.config(), batch, seq_len),
            grads: model.grad_buffer(),
            batch: Batch::zeros(batch, seq_len),
            model,
        }
    }

    /// The model.
    pub(crate) fn model(&self) -> &Gpt {
        &self.model
    }

    /// Overwrites the model's weights.
    ///
    /// # Panics
    /// Panics if the parameter length does not match.
    pub(crate) fn set_params(&mut self, params: &[f32]) {
        self.model.set_params(params);
    }

    /// The trained parameters.
    pub(crate) fn into_params(self) -> Vec<f32> {
        self.model.into_params()
    }

    /// One optimizer step of `opt` on batches drawn from `stream`: forward
    /// and backward over `step.micro_batches` batches (their gradients
    /// averaged), the FedProx anchor, the ring mean when there is a `ring`,
    /// clipping, the update. Returns the mean micro-batch loss.
    pub(crate) fn step(
        &mut self,
        stream: &mut dyn TokenStream,
        opt: &mut AdamW,
        step: &Step<'_>,
        ring: Option<&mut RingWorker>,
    ) -> f32 {
        let Replica {
            model,
            acts,
            grads,
            batch,
        } = self;
        grads.fill(0.0);
        let mut loss_sum = 0.0f64;
        for _ in 0..step.micro_batches {
            stream.next_batch(batch);
            let loss = model
                .forward(&batch.inputs, Some(&batch.targets), acts)
                .expect("targets provided");
            loss_sum += loss as f64;
            model.backward(&batch.inputs, &batch.targets, acts, grads);
        }
        if step.micro_batches > 1 {
            photon_tensor::ops::scale(1.0 / step.micro_batches as f32, grads);
        }
        if let Some((mu, anchor)) = step.prox {
            for ((g, &w), &a) in grads.iter_mut().zip(model.params()).zip(anchor) {
                *g += mu * (w - a);
            }
        }
        if let Some(ring) = ring {
            ring.allreduce_mean(grads);
        }
        if let Some(max_norm) = step.grad_clip {
            clip_global_norm(grads, max_norm);
        }
        opt.step(model.params_mut(), grads, step.lr);
        (loss_sum / step.micro_batches as f64) as f32
    }
}

/// One replica's training segment: `cfg.steps` steps from `params` over
/// `stream` with `opt` — a fresh optimizer when there is none (stateless
/// local training) — and gradients averaged over `ring` when there is one.
/// Returns the trained parameters and the mean loss.
pub(crate) fn train_replica(
    params: &[f32],
    cfg: &DdpConfig,
    opt: Option<&mut AdamW>,
    mut stream: Box<dyn TokenStream>,
    mut ring: Option<RingWorker>,
) -> Trained {
    let mut fresh = None;
    let opt = match opt {
        Some(opt) => opt,
        None => fresh.insert(AdamW::new(cfg.adamw, params.len())),
    };
    let model = Gpt::from_params(cfg.model, params.to_vec());
    let mut replica = Replica::new(model, cfg.per_worker_batch, cfg.seq_len);
    let mut loss_sum = 0.0f64;
    for i in 0..cfg.steps {
        let step = Step {
            micro_batches: 1,
            lr: cfg.schedule.lr_at(cfg.start_step + i),
            grad_clip: cfg.grad_clip,
            // The proximal anchor is the received model itself.
            prox: cfg.fedprox_mu.map(|mu| (mu, params)),
        };
        loss_sum += replica.step(&mut *stream, opt, &step, ring.as_mut()) as f64;
    }
    let mean = (loss_sum / cfg.steps.max(1) as f64) as f32;
    (replica.into_params(), mean)
}

/// The one replica runner: `train(index, job, ring)` trains one replica per
/// job and returns its parameters and mean loss. Each replica runs on a
/// scoped thread of its own under an equal share of the caller's compute
/// context ([`pool::Context::split`]) — except that a single replica whose
/// caller has one core to give (execution width 1: a client lane on a full
/// machine) trains on the caller, where a thread of its own could only take
/// turns with it (DESIGN.md §4.8). With `ring`, two or more replicas
/// average their gradients over a ring every step; one replica has nothing
/// to average with and gets none.
///
/// Every replica is joined before any outcome is read, so a failed replica
/// never leaves a sibling running into the next round (a ring peer of a
/// dead replica panics on the broken ring instead of waiting). Returns the
/// replicas' results in job order, or the lowest-indexed replica that
/// panicked and its panic message.
///
/// # Panics
/// Panics if ring replicas desynchronize (which would indicate a
/// collective bug).
pub(crate) fn run_replicas<J: Send>(
    jobs: Vec<J>,
    ring: bool,
    train: impl Fn(usize, J, Option<RingWorker>) -> Trained + Sync,
) -> Result<Vec<Trained>, (usize, String)> {
    let n = jobs.len();
    let ctx = pool::Context::current().split(n);
    let joined: Vec<std::thread::Result<Trained>> = if n == 1 && ctx.width == 1 {
        let job = jobs.into_iter().next().expect("one job");
        vec![catch_unwind(AssertUnwindSafe(|| train(0, job, None)))]
    } else {
        let mut rings = (ring && n > 1)
            .then(|| ring_allreduce_group(n))
            .into_iter()
            .flatten();
        #[cfg(test)]
        crate::thread_census::note_spawned(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .enumerate()
                .map(|(replica, job)| {
                    let (ctx, train, ring) = (&ctx, &train, rings.next());
                    scope.spawn(move || ctx.enter(|| train(replica, job, ring)))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let trained = joined
        .into_iter()
        .enumerate()
        .map(|(replica, outcome)| outcome.map_err(|payload| (replica, panic_message(&*payload))))
        .collect::<Result<Vec<_>, _>>()?;
    // The ring's reduced gradient is bitwise identical on every rank and
    // the optimizers are deterministic.
    let same = |a: &[f32], b: &[f32]| {
        a.iter()
            .map(|v| v.to_bits())
            .eq(b.iter().map(|v| v.to_bits()))
    };
    assert!(
        !ring || trained.windows(2).all(|w| same(&w[0].0, &w[1].0)),
        "ddp replicas desynchronized"
    );
    Ok(trained)
}

/// A caught panic's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs synchronous data-parallel training from `params` — one replica per
/// stream, each with a fresh optimizer, under the one replica runner with a
/// ring — and returns the updated parameters and a report.
///
/// # Panics
/// Panics if `streams` is empty, a replica panics, or the replicas
/// desynchronize (which would indicate a collective bug).
pub fn ddp_train(
    params: &[f32],
    cfg: &DdpConfig,
    streams: Vec<Box<dyn TokenStream>>,
) -> (Vec<f32>, DdpReport) {
    assert!(!streams.is_empty(), "ddp needs at least one worker");
    let mut trained = run_replicas(streams, true, |_, stream, ring| {
        train_replica(params, cfg, None, stream, ring)
    })
    .unwrap_or_else(|(replica, reason)| panic!("ddp replica {replica} panicked: {reason}"));
    let report = DdpReport::of(cfg, &trained);
    (trained.swap_remove(0).0, report)
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
