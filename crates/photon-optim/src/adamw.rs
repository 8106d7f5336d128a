use crate::Optimizer;
use serde::{Deserialize, Serialize};

/// AdamW hyperparameters. Defaults follow the paper's Table 4:
/// `(β1, β2) = (0.9, 0.95)`, with decoupled weight decay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamWConfig {
    /// First-moment decay β1.
    pub beta1: f32,
    /// Second-moment decay β2.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// AdamW (Loshchilov & Hutter) over a flat parameter buffer.
///
/// Maintains first/second moment vectors and a step counter for bias
/// correction. `reset_state` supports Photon's stateless local optimization
/// (moments are *not* communicated between rounds; paper Appendix C.1).
///
/// Before the first step the moments are zero by definition: that step
/// stores them from the gradient without reading the buffers, so a reset
/// is the step counter alone, not a pass over two model-sized vectors.
#[derive(Debug, Clone)]
pub struct AdamW {
    config: AdamWConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamW {
    /// Creates an AdamW optimizer for `param_len` parameters.
    pub fn new(config: AdamWConfig, param_len: usize) -> Self {
        AdamW {
            config,
            m: vec![0.0; param_len],
            v: vec![0.0; param_len],
            t: 0,
        }
    }

    /// The hyperparameter set.
    pub fn config(&self) -> &AdamWConfig {
        &self.config
    }

    /// Current step count (for bias correction).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// One update. The `FIRST` step takes both moments as `0.0` instead
    /// of reading them: the same arithmetic as over zeroed buffers, so the
    /// result is the same bits whatever a reset left in them.
    fn update<const FIRST: bool>(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        self.t += 1;
        let c = self.config;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            let (m, v) = if FIRST {
                (0.0, 0.0)
            } else {
                (self.m[i], self.v[i])
            };
            self.m[i] = c.beta1 * m + (1.0 - c.beta1) * g;
            self.v[i] = c.beta2 * v + (1.0 - c.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= lr * (m_hat / (v_hat.sqrt() + c.eps) + c.weight_decay * params[i]);
        }
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.m.len(), "params length mismatch");
        assert_eq!(grads.len(), self.m.len(), "grads length mismatch");
        if self.t == 0 {
            self.update::<true>(params, grads, lr);
        } else {
            self.update::<false>(params, grads, lr);
        }
    }

    fn reset_state(&mut self) {
        self.t = 0;
    }

    fn param_len(&self) -> usize {
        self.m.len()
    }

    fn state_bytes_per_param(&self) -> usize {
        8 // two f32 moments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = x^2 must converge to ~0.
    #[test]
    fn converges_on_quadratic() {
        let mut opt = AdamW::new(AdamWConfig::default(), 1);
        let mut x = vec![5.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g, 0.05);
        }
        assert!(x[0].abs() < 0.05, "x={}", x[0]);
    }

    #[test]
    fn first_step_is_signed_unit_step() {
        // With bias correction, the first Adam update is ~lr * sign(g).
        let mut opt = AdamW::new(AdamWConfig::default(), 2);
        let mut p = vec![0.0f32, 0.0];
        opt.step(&mut p, &[3.0, -0.001], 0.1);
        assert!((p[0] + 0.1).abs() < 1e-3, "p0={}", p[0]);
        assert!((p[1] - 0.1).abs() < 1e-3, "p1={}", p[1]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let cfg = AdamWConfig {
            weight_decay: 0.5,
            ..AdamWConfig::default()
        };
        let mut opt = AdamW::new(cfg, 1);
        let mut p = vec![10.0f32];
        opt.step(&mut p, &[0.0], 0.1);
        // Zero gradient: only decay applies -> p = 10 - 0.1*0.5*10 = 9.5.
        assert!((p[0] - 9.5).abs() < 1e-4);
    }

    #[test]
    fn reset_state_clears_moments() {
        let mut opt = AdamW::new(AdamWConfig::default(), 1);
        let mut p = vec![1.0f32];
        opt.step(&mut p, &[1.0], 0.1);
        assert_eq!(opt.step_count(), 1);
        opt.reset_state();
        assert_eq!(opt.step_count(), 0);
        // After a reset the next step behaves like the first one.
        let mut q = vec![0.0f32];
        opt.step(&mut q, &[5.0], 0.1);
        assert!((q[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn a_reset_steps_like_zeroed_moments_whatever_the_buffers_hold() {
        let cfg = AdamWConfig {
            weight_decay: 0.1,
            ..AdamWConfig::default()
        };
        let grads = [3.0, -0.0, 0.0, -2.5e-3, 7.0];
        let run = |opt: &mut AdamW| {
            let mut p = vec![0.5f32, -1.0, 0.0, -0.0, 2.0];
            for _ in 0..3 {
                opt.step(&mut p, &grads, 0.1);
            }
            p.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let fresh = run(&mut AdamW::new(cfg, 5));
        let mut reused = AdamW::new(cfg, 5);
        reused.step(&mut [0.0; 5], &[f32::NAN; 5], 1.0);
        reused.reset_state();
        assert_eq!(
            run(&mut reused),
            fresh,
            "NaN moments left by a reset are never read"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_lengths() {
        let mut opt = AdamW::new(AdamWConfig::default(), 2);
        let mut p = vec![0.0f32; 3];
        opt.step(&mut p, &[0.0; 3], 0.1);
    }

    #[test]
    fn state_bytes() {
        assert_eq!(
            AdamW::new(AdamWConfig::default(), 1).state_bytes_per_param(),
            8
        );
    }
}
