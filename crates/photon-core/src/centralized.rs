use crate::ddp::{Replica, Step};
use photon_data::TokenStream;
use photon_nn::{Gpt, ModelConfig};
use photon_optim::{AdamW, AdamWConfig, LrSchedule};
use photon_tensor::SeedStream;

/// The centralized pre-training baseline Photon is compared against:
/// one optimizer stepping on a large global batch every step (Table 5's
/// `Batch Size Cent` column): the local trainer's `Replica` with its
/// stream, schedule and step count. For the data-parallel variant with
/// explicit multi-worker gradient all-reduce, see [`crate::ddp_train`].
pub struct CentralizedTrainer {
    replica: Replica,
    opt: AdamW,
    schedule: LrSchedule,
    grad_clip: Option<f32>,
    stream: Box<dyn TokenStream>,
    step: u64,
    accum_steps: u32,
}

impl std::fmt::Debug for CentralizedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralizedTrainer")
            .field("step", &self.step)
            .field("params", &self.replica.model().param_count())
            .finish()
    }
}

impl CentralizedTrainer {
    /// Creates a trainer with a fresh model.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn new(
        model_cfg: ModelConfig,
        batch_size: usize,
        adamw: AdamWConfig,
        schedule: LrSchedule,
        grad_clip: Option<f32>,
        stream: Box<dyn TokenStream>,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let model = Gpt::new(model_cfg, &mut SeedStream::new(seed));
        let replica = Replica::new(model, batch_size, model_cfg.seq_len);
        CentralizedTrainer {
            opt: AdamW::new(adamw, replica.model().param_count()),
            replica,
            schedule,
            grad_clip,
            stream,
            step: 0,
            accum_steps: 1,
        }
    }

    /// Enables gradient accumulation: each optimizer step averages the
    /// gradients of `n` micro-batches, emulating an `n`-times larger batch
    /// when VRAM cannot hold it (§2.2 — the paper tunes batch sizes so
    /// that, ideally, no accumulation is needed).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_grad_accumulation(mut self, n: u32) -> Self {
        assert!(n > 0, "accumulation steps must be positive");
        self.accum_steps = n;
        self
    }

    /// Runs one optimizer step (accumulating `accum_steps` micro-batches),
    /// returning the mean micro-batch loss.
    pub fn step(&mut self) -> f32 {
        let step = Step {
            micro_batches: self.accum_steps,
            lr: self.schedule.lr_at(self.step),
            grad_clip: self.grad_clip,
            prox: None,
        };
        let loss = self
            .replica
            .step(&mut *self.stream, &mut self.opt, &step, None);
        self.step += 1;
        loss
    }

    /// Runs `n` steps, returning the mean loss.
    pub fn train_steps(&mut self, n: u64) -> f32 {
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += self.step() as f64;
        }
        (sum / n.max(1) as f64) as f32
    }

    /// The trained model.
    pub fn model(&self) -> &Gpt {
        self.replica.model()
    }

    /// Overwrites the model weights (e.g. to continue from a federated
    /// checkpoint — the §6 continual pre-training workflow).
    ///
    /// # Panics
    /// Panics if the parameter length does not match.
    pub fn set_params(&mut self, params: &[f32]) {
        self.replica.set_params(params);
    }

    /// Steps taken so far.
    pub fn global_step(&self) -> u64 {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_data::{Shard, ShardStream};
    use photon_optim::ScheduleKind;
    use std::sync::Arc;

    fn trainer(batch: usize, lr: f32) -> CentralizedTrainer {
        let model = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 17,
            seq_len: 8,
        };
        let shard = Shard::from_range("t", Arc::new((0..500u32).map(|i| i % 17).collect()), 0, 500);
        CentralizedTrainer::new(
            model,
            batch,
            AdamWConfig::default(),
            LrSchedule::new(ScheduleKind::Constant, lr, lr / 10.0, 1, 1000),
            Some(1.0),
            Box::new(ShardStream::new(shard, SeedStream::new(1))),
            0,
        )
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let mut t = trainer(4, 1e-2);
        let first = t.train_steps(5);
        let later = t.train_steps(40);
        assert!(later < first, "{first} -> {later}");
        assert_eq!(t.global_step(), 45);
    }

    #[test]
    fn grad_accumulation_emulates_larger_batches() {
        // 4 micro-batches of 2 should behave like batch 8 (same data
        // distribution, same variance reduction), and definitely train.
        let mut t = trainer(2, 1e-2).with_grad_accumulation(4);
        let first = t.train_steps(5);
        let later = t.train_steps(30);
        assert!(later < first, "{first} -> {later}");
        // One optimizer step per accumulation group.
        assert_eq!(t.global_step(), 35);
    }

    #[test]
    fn very_high_lr_small_batch_is_unstable() {
        // The §3 motivation: centralized small-batch training cannot
        // tolerate very high learning rates; loss stays high or explodes
        // relative to a tuned configuration.
        let mut sane = trainer(4, 1e-2);
        let mut wild = trainer(4, 2.0);
        let sane_loss = {
            sane.train_steps(30);
            sane.train_steps(10)
        };
        let wild_loss = {
            wild.train_steps(30);
            wild.train_steps(10)
        };
        assert!(
            !wild_loss.is_finite() || wild_loss > sane_loss * 1.2,
            "expected instability: sane={sane_loss} wild={wild_loss}"
        );
    }
}
