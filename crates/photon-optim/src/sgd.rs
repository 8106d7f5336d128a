use crate::Optimizer;
use serde::{Deserialize, Serialize};

/// SGD hyperparameters. The DiLoCo outer optimizer uses
/// `momentum = 0.9, nesterov = true` (paper Appendix A / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Whether to use the Nesterov variant.
    pub nesterov: bool,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            momentum: 0.0,
            nesterov: false,
            weight_decay: 0.0,
        }
    }
}

impl SgdConfig {
    /// DiLoCo's recommended outer-optimizer configuration:
    /// Nesterov momentum 0.9.
    #[cfg(test)]
    fn diloco_outer() -> Self {
        SgdConfig {
            momentum: 0.9,
            nesterov: true,
            weight_decay: 0.0,
        }
    }
}

/// SGD with optional (Nesterov) momentum over a flat buffer.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer for `param_len` parameters.
    pub fn new(config: SgdConfig, param_len: usize) -> Self {
        Sgd {
            config,
            velocity: vec![0.0; param_len],
        }
    }

    /// The hyperparameter set.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.velocity.len(), "params length mismatch");
        assert_eq!(grads.len(), self.velocity.len(), "grads length mismatch");
        let c = self.config;
        for i in 0..params.len() {
            let g = grads[i] + c.weight_decay * params[i];
            if c.momentum == 0.0 {
                params[i] -= lr * g;
            } else {
                self.velocity[i] = c.momentum * self.velocity[i] + g;
                let update = if c.nesterov {
                    g + c.momentum * self.velocity[i]
                } else {
                    self.velocity[i]
                };
                params[i] -= lr * update;
            }
        }
    }

    fn reset_state(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    fn param_len(&self) -> usize {
        self.velocity.len()
    }

    fn state_bytes_per_param(&self) -> usize {
        if self.config.momentum == 0.0 {
            0
        } else {
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_is_exact() {
        let mut opt = Sgd::new(SgdConfig::default(), 2);
        let mut p = vec![1.0f32, 2.0];
        opt.step(&mut p, &[0.5, -0.5], 0.1);
        assert_eq!(p, vec![0.95, 2.05]);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut plain = Sgd::new(SgdConfig::default(), 1);
        let mut mom = Sgd::new(
            SgdConfig {
                momentum: 0.9,
                ..SgdConfig::default()
            },
            1,
        );
        let mut p1 = vec![0.0f32];
        let mut p2 = vec![0.0f32];
        for _ in 0..10 {
            plain.step(&mut p1, &[1.0], 0.01);
            mom.step(&mut p2, &[1.0], 0.01);
        }
        assert!(p2[0] < p1[0], "momentum should move further: {p1:?} {p2:?}");
    }

    #[test]
    fn nesterov_differs_from_heavy_ball() {
        let mut hb = Sgd::new(
            SgdConfig {
                momentum: 0.9,
                nesterov: false,
                weight_decay: 0.0,
            },
            1,
        );
        let mut nag = Sgd::new(SgdConfig::diloco_outer(), 1);
        let mut p1 = vec![0.0f32];
        let mut p2 = vec![0.0f32];
        for _ in 0..3 {
            hb.step(&mut p1, &[1.0], 0.1);
            nag.step(&mut p2, &[1.0], 0.1);
        }
        assert_ne!(p1, p2);
        assert!(p2[0] < p1[0], "nesterov looks ahead");
    }

    #[test]
    fn converges_on_quadratic() {
        let mut opt = Sgd::new(SgdConfig::diloco_outer(), 1);
        let mut x = vec![4.0f32];
        for _ in 0..200 {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g, 0.02);
        }
        assert!(x[0].abs() < 0.05, "x={}", x[0]);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut opt = Sgd::new(SgdConfig::diloco_outer(), 1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0], 0.1);
        opt.reset_state();
        let mut q = vec![0.0f32];
        opt.step(&mut q, &[1.0], 0.1);
        // First-step update with fresh state: lr * (g + m*g) = 0.1 * 1.9.
        assert!((q[0] + 0.19).abs() < 1e-6);
    }

    #[test]
    fn state_bytes_depend_on_momentum() {
        assert_eq!(Sgd::new(SgdConfig::default(), 1).state_bytes_per_param(), 0);
        assert_eq!(
            Sgd::new(SgdConfig::diloco_outer(), 1).state_bytes_per_param(),
            4
        );
    }
}
