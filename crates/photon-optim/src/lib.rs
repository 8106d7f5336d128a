//! # photon-optim
//!
//! Local (client-side) optimization for Photon-RS: AdamW and SGD with
//! Nesterov momentum, cosine learning-rate schedules with linear warm-up,
//! and global-norm gradient clipping — the full client training recipe of
//! the paper (AdamW, cosine schedule, warm-up; Appendix A). When the batch
//! size changes, the learning rate stays and the cosine period stretches
//! ([`LrSchedule::stretch_for_batch`], Appendix C.1); the crate has no
//! linear or square-root learning-rate scaling rules.
//!
//! Optimizers operate on flat parameter/gradient buffers, matching
//! `photon-nn`'s single-buffer layout, so one `step` call updates an entire
//! model.
//!
//! ```
//! use photon_optim::{AdamW, AdamWConfig, Optimizer};
//! let mut opt = AdamW::new(AdamWConfig::default(), 4);
//! let mut params = vec![1.0f32; 4];
//! let grads = vec![0.5f32; 4];
//! opt.step(&mut params, &grads, 1e-2);
//! assert!(params.iter().all(|&p| p < 1.0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod adamw;
mod clip;
mod schedule;
mod sgd;

pub use adamw::{AdamW, AdamWConfig};
pub use clip::{clip_global_norm, global_norm};
pub use schedule::{LrSchedule, ScheduleKind};
pub use sgd::{Sgd, SgdConfig};

/// A stateful first-order optimizer over flat parameter buffers.
///
/// The learning rate is passed per step (schedules live outside the
/// optimizer), and [`Optimizer::reset_state`] clears momenta — Photon's
/// local optimization is stateless and resets client optimizer state every
/// round (paper Appendix A).
pub trait Optimizer: Send {
    /// Applies one update: `params <- params - lr * update(grads)`.
    ///
    /// # Panics
    /// Implementations panic if `params` and `grads` lengths differ from
    /// the optimizer's state size.
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32);

    /// Clears all internal state (moments, step counters).
    fn reset_state(&mut self);

    /// Number of parameters this optimizer was built for.
    fn param_len(&self) -> usize;

    /// Bytes of optimizer state per parameter (used by the VRAM model:
    /// 8 for AdamW's two f32 moments, 4 for SGD momentum, 0 for plain SGD).
    fn state_bytes_per_param(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_is_object_safe() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(AdamW::new(AdamWConfig::default(), 2)),
            Box::new(Sgd::new(SgdConfig::default(), 2)),
        ];
        for mut opt in opts {
            let mut p = vec![1.0f32, -1.0];
            opt.step(&mut p, &[1.0, -1.0], 0.1);
            assert!(p[0] < 1.0 && p[1] > -1.0);
        }
    }
}
