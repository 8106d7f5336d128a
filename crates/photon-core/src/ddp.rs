//! The one local trainer: Algorithm 1's local pipeline (L.16–25) and
//! Algorithm 2's data-parallel baseline, over real OS threads.
//!
//! A [`Replica`] — a model with its activations, gradients and batch,
//! allocated once — is the only place a local optimizer step is written,
//! and [`run_replicas`] is the one runner every local-training path goes
//! through: the single-GPU client, DDP and FSDP replicas, and the
//! sub-federation's nodes. The centralized baseline steps a replica of its
//! own. A client's replicas and their optimizers live in a [`Workspace`]
//! that outlives the round: whoever runs clients one after another (a
//! simulator lane, a `photon client` process) owns one.
//!
//! Data-parallel replicas hold a private data stream each; every step they
//! average their gradients with a real ring-allreduce (`photon-comms`) and
//! apply identical optimizer updates. Because the reduced gradient is
//! bitwise identical on every rank, the replicas stay exactly
//! synchronized — which the runner asserts.

use photon_comms::{ring_allreduce_group, RingWorker, SealedFrame};
use photon_data::{Batch, TokenStream};
use photon_fedopt::{aggregate_deltas, ClientUpdate};
use photon_nn::{Activations, Gpt, ModelConfig};
use photon_optim::{clip_global_norm, AdamW, AdamWConfig, LrSchedule, Optimizer};
use photon_tensor::ops::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration for one DDP training segment.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Model architecture.
    pub model: ModelConfig,
    /// Micro-batch per worker; its sequences are `model.seq_len` long.
    pub per_worker_batch: usize,
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

impl DdpReport {
    /// The report of a `cfg` segment whose replicas reported `losses`: the
    /// mean of their losses and the tokens of all of them.
    pub(crate) fn of(cfg: &DdpConfig, losses: &[f32]) -> Self {
        let n = losses.len();
        DdpReport {
            mean_loss: losses.iter().sum::<f32>() / n as f32,
            tokens: cfg.steps * (n * cfg.per_worker_batch * cfg.model.seq_len) as u64,
            steps: cfg.steps,
        }
    }
}

/// A client's training state, sized once per run shape and reused round
/// after round: up to 8 replicas (grown on demand), one optimizer each.
///
/// Nothing in it carries over from one client round to the next. A round
/// stores every buffer before it reads it: the broadcast is loaded into
/// the parameters, each step draws its batch and overwrites its
/// activations and gradients, the optimizers are reset (local training is
/// stateless), and the delta is formed over the gradients. A round that
/// failed half-way leaves nothing the next one reads.
#[derive(Default)]
pub struct Workspace {
    replicas: Vec<Replica>,
    opts: Vec<AdamW>,
    /// A spent result frame the next result is sealed into, once its
    /// transport has handed it back ([`Workspace::keep_result_frame`]).
    result_frame: Vec<u8>,
    /// Overwrites everything with NaN each time the workspace is handed
    /// out, to prove the rule above.
    #[cfg(test)]
    pub(crate) nan_fill: bool,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("replicas", &self.replicas.len())
            .field("optimizers", &self.opts.len())
            .finish()
    }
}

impl Workspace {
    /// An empty workspace; the first round sizes it.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Takes back a result frame the transport is done with — delivered
    /// and acknowledged — so the next round seals its result into the
    /// frame's allocation instead of a fresh one.
    pub fn keep_result_frame(&mut self, frame: SealedFrame) {
        self.result_frame = frame.into_buffer();
    }

    /// The kept result-frame buffer, leaving none behind.
    pub(crate) fn take_result_frame(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.result_frame)
    }

    /// `n` replicas shaped for `cfg` and `params` and `n` optimizers reset
    /// to their first step. Buffers of another shape are dropped and
    /// rebuilt; nothing else is allocated.
    pub(crate) fn slots(
        &mut self,
        n: usize,
        cfg: &DdpConfig,
        params: &[f32],
    ) -> (&mut [Replica], &mut [AdamW]) {
        if !self.replicas.iter().all(|r| r.fits(cfg, params.len())) {
            self.replicas.clear();
        }
        while self.replicas.len() < n {
            let model = Gpt::from_params(cfg.model, params.to_vec());
            let replica = Replica::new(model, cfg.per_worker_batch);
            self.replicas.push(replica);
        }
        if !self
            .opts
            .iter()
            .all(|o| o.config() == &cfg.adamw && o.param_len() == params.len())
        {
            self.opts.clear();
        }
        while self.opts.len() < n {
            self.opts.push(AdamW::new(cfg.adamw, params.len()));
        }
        #[cfg(test)]
        if self.nan_fill {
            self.fill_nan();
        }
        let opts = &mut self.opts[..n];
        opts.iter_mut().for_each(Optimizer::reset_state);
        (&mut self.replicas[..n], opts)
    }

    /// NaN in every float the workspace holds, an out-of-vocabulary token
    /// in every batch slot.
    #[cfg(test)]
    fn fill_nan(&mut self) {
        for r in &mut self.replicas {
            r.model.params_mut().fill(f32::NAN);
            r.acts.fill(f32::NAN);
            r.grads.fill(f32::NAN);
            r.batch.inputs.fill(u32::MAX);
            r.batch.targets.fill(u32::MAX);
        }
        for opt in &mut self.opts {
            // A NaN gradient leaves NaN in both moments.
            let nan = vec![f32::NAN; opt.param_len()];
            opt.step(&mut nan.clone(), &nan, 1.0);
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

impl Replica {
    /// A replica of `model` training on `(batch, model.seq_len)` batches.
    pub(crate) fn new(model: Gpt, batch: usize) -> Self {
        let seq_len = model.config().seq_len;
        Replica {
            acts: Activations::new(model.config(), batch, seq_len),
            grads: model.grad_buffer(),
            batch: Batch::zeros(batch, seq_len),
            model,
        }
    }

    /// Whether the replica trains `cfg`'s model over `param_len`
    /// parameters on its batches.
    fn fits(&self, cfg: &DdpConfig, param_len: usize) -> bool {
        self.model.config() == &cfg.model
            && self.model.param_count() == param_len
            && self.grads.len() == param_len
            && self.acts.batch() == cfg.per_worker_batch
            && self.acts.seq() == cfg.model.seq_len
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

    /// Forms the pseudo-gradient `global − local` in the gradient buffer,
    /// which no step reads before it stores it again, and returns it.
    pub(crate) fn delta(&mut self, global: &[f32]) -> &mut [f32] {
        assert_eq!(global.len(), self.grads.len(), "parameter length mismatch");
        for ((d, &g), &l) in self.grads.iter_mut().zip(global).zip(self.model.params()) {
            *d = g - l;
        }
        &mut self.grads
    }

    /// One optimizer step of `opt` at learning rate `lr` on a batch drawn
    /// from `stream`: forward, backward, the ring mean when there is a
    /// `ring`, global-norm clipping to `grad_clip`, the update. Returns the
    /// batch loss.
    pub(crate) fn step(
        &mut self,
        stream: &mut dyn TokenStream,
        opt: &mut AdamW,
        lr: f32,
        grad_clip: Option<f32>,
        ring: Option<&mut RingWorker>,
    ) -> f32 {
        let Replica {
            model,
            acts,
            grads,
            batch,
        } = self;
        grads.fill(0.0);
        stream.next_batch(batch);
        let loss = model
            .forward(&batch.inputs, Some(&batch.targets), acts)
            .expect("targets provided");
        model.backward(&batch.inputs, &batch.targets, acts, grads);
        if let Some(ring) = ring {
            ring.allreduce_mean(grads);
        }
        if let Some(max_norm) = grad_clip {
            clip_global_norm(grads, max_norm);
        }
        opt.step(model.params_mut(), grads, lr);
        loss
    }
}

/// One replica's training segment: loads `params` into `replica`, runs
/// `cfg.steps` steps over `stream` with `opt`, averaging gradients over
/// `ring` when there is one, and returns the mean loss.
pub(crate) fn train_replica(
    replica: &mut Replica,
    params: &[f32],
    cfg: &DdpConfig,
    opt: &mut AdamW,
    mut stream: Box<dyn TokenStream>,
    mut ring: Option<RingWorker>,
) -> f32 {
    replica.set_params(params);
    let mut loss_sum = 0.0f64;
    for i in 0..cfg.steps {
        let lr = cfg.schedule.lr_at(cfg.start_step + i);
        loss_sum += replica.step(&mut *stream, opt, lr, cfg.grad_clip, ring.as_mut()) as f64;
    }
    (loss_sum / cfg.steps.max(1) as f64) as f32
}

/// The one replica runner: `train(index, replica, job, ring)` trains
/// `replicas[index]` on `jobs[index]` and returns its mean loss; the
/// trained parameters stay in the replica. Each replica runs on a scoped
/// thread of its own under an equal share of the caller's compute context
/// ([`pool::Context::split`]) — except that a single replica whose caller
/// has one core to give (execution width 1: a client lane on a full
/// machine) trains on the caller, where a thread of its own could only
/// take turns with it (DESIGN.md §4.8). With `ring`, two or more replicas
/// average their gradients over a ring every step; one replica has nothing
/// to average with and gets none.
///
/// Every replica is joined before any outcome is read, so a failed replica
/// never leaves a sibling running into the next round (a ring peer of a
/// dead replica panics on the broken ring instead of waiting). Returns the
/// replicas' losses in job order, or the lowest-indexed replica that
/// panicked and its panic message.
///
/// # Panics
/// Panics if there are fewer replicas than jobs, or ring replicas
/// desynchronize (which would indicate a collective bug).
pub(crate) fn run_replicas<J: Send>(
    replicas: &mut [Replica],
    jobs: Vec<J>,
    ring: bool,
    train: impl Fn(usize, &mut Replica, J, Option<RingWorker>) -> f32 + Sync,
) -> Result<Vec<f32>, (usize, String)> {
    let n = jobs.len();
    assert!(replicas.len() >= n, "a replica per job");
    let replicas = &mut replicas[..n];
    let ctx = pool::Context::current().split(n);
    let joined: Vec<std::thread::Result<f32>> = if n == 1 && ctx.width == 1 {
        let job = jobs.into_iter().next().expect("one job");
        let replica = &mut replicas[0];
        vec![catch_unwind(AssertUnwindSafe(|| {
            train(0, replica, job, None)
        }))]
    } else {
        let mut rings = (ring && n > 1)
            .then(|| ring_allreduce_group(n))
            .into_iter()
            .flatten();
        #[cfg(test)]
        crate::thread_census::note_spawned(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = replicas
                .iter_mut()
                .zip(jobs)
                .enumerate()
                .map(|(index, (replica, job))| {
                    let (ctx, train, ring) = (&ctx, &train, rings.next());
                    scope.spawn(move || ctx.enter(|| train(index, replica, job, ring)))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let losses = joined
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
        !ring
            || replicas
                .windows(2)
                .all(|w| same(w[0].model.params(), w[1].model.params())),
        "ddp replicas desynchronized"
    );
    Ok(losses)
}

/// L.24, `θ_k = (1/|I|) Σ θ_i`, through the one mean: the nodes'
/// pseudo-gradients, weight 1 each, formed in their gradient buffers; the
/// mean lands in node 0's.
pub(crate) fn node_mean<'r>(nodes: &'r mut [Replica], global: &[f32]) -> &'r mut [f32] {
    let updates: Vec<ClientUpdate> = nodes
        .iter_mut()
        .map(|node| {
            node.delta(global);
            ClientUpdate {
                delta: std::mem::take(&mut node.grads),
                weight: 1.0,
            }
        })
        .collect();
    let mean = aggregate_deltas(&updates);
    for (node, update) in nodes.iter_mut().zip(updates) {
        node.grads = update.delta;
    }
    let first = &mut nodes[0].grads;
    first.copy_from_slice(&mean);
    first
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
    let mut workspace = Workspace::new();
    let (replicas, opts) = workspace.slots(streams.len(), cfg, params);
    let jobs: Vec<_> = streams.into_iter().zip(opts).collect();
    let losses = run_replicas(replicas, jobs, true, |_, replica, (stream, opt), ring| {
        train_replica(replica, params, cfg, opt, stream, ring)
    })
    .unwrap_or_else(|(replica, reason)| panic!("ddp replica {replica} panicked: {reason}"));
    (
        replicas[0].model().params().to_vec(),
        DdpReport::of(cfg, &losses),
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
            steps,
            start_step: 0,
            adamw: AdamWConfig::default(),
            schedule: LrSchedule::new(ScheduleKind::Constant, 1e-2, 1e-3, 1, 1000),
            grad_clip: Some(1.0),
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
    fn the_delta_is_global_minus_local_in_the_gradient_buffer() {
        let cfg = tiny_cfg(1);
        let global = init_params(&cfg);
        let mut replica = Replica::new(Gpt::from_params(cfg.model, global.clone()), 2);
        let local: Vec<f32> = global.iter().map(|g| g * 0.5 + 1.0).collect();
        replica.set_params(&local);
        let want: Vec<f32> = global.iter().zip(&local).map(|(g, l)| g - l).collect();
        let grads = replica.grads.as_ptr();
        let delta = replica.delta(&global);
        assert_eq!(delta, &want[..]);
        assert_eq!(delta.as_ptr(), grads, "formed where the gradients were");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_streams_panics() {
        let cfg = tiny_cfg(1);
        let params = init_params(&cfg);
        ddp_train(&params, &cfg, vec![]);
    }
}
