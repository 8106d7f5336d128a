use serde::{Deserialize, Serialize};

/// Portable snapshot of a server optimizer's internal state, carried by
/// the checkpoint so an aggregator restart does not silently lose
/// outer momenta (the DiLoCo Nesterov buffer, FedAdam's moments, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerOptState {
    /// Optimizer name this state belongs to (mismatches are rejected).
    pub kind: String,
    /// Step counter (FedAdam's `t`; zero for counterless optimizers).
    pub step: u64,
    /// Momentum/moment buffers, in an optimizer-defined order.
    pub slots: Vec<Vec<f32>>,
}

impl ServerOptState {
    /// State of an optimizer with no internal buffers (e.g. FedAvg).
    pub fn stateless(kind: &str) -> Self {
        ServerOptState {
            kind: kind.to_string(),
            step: 0,
            slots: Vec::new(),
        }
    }

    /// Checks this state matches `kind` and carries buffers of exactly
    /// `slot_lens` lengths.
    ///
    /// # Errors
    /// Returns a description of the mismatch.
    pub fn check(&self, kind: &str, slot_lens: &[usize]) -> Result<(), String> {
        if self.kind != kind {
            return Err(format!(
                "server-optimizer state is for {:?}, current optimizer is {kind:?}",
                self.kind
            ));
        }
        if self.slots.len() != slot_lens.len() {
            return Err(format!(
                "{kind} expects {} state buffer(s), checkpoint has {}",
                slot_lens.len(),
                self.slots.len()
            ));
        }
        for (i, (slot, &want)) in self.slots.iter().zip(slot_lens).enumerate() {
            if slot.len() != want {
                return Err(format!(
                    "{kind} state buffer {i} has {} values, expected {want}",
                    slot.len()
                ));
            }
        }
        Ok(())
    }
}

/// A server-side optimizer consuming the aggregated pseudo-gradient
/// (Algorithm 1, L.9: `θ^{t+1} ← ServerOpt(θ^t, −Δ^t, t)`).
///
/// Conventions: `avg_delta` is the aggregated `Δ = θ_global − θ_local`
/// average; descending the pseudo-gradient means subtracting it, so FedAvg
/// with server lr 1.0 recovers plain parameter averaging.
pub trait ServerOpt: Send {
    /// Applies one server update in place.
    ///
    /// # Panics
    /// Implementations panic on length mismatches.
    fn apply(&mut self, global: &mut [f32], avg_delta: &[f32], round: u64);

    /// Human-readable optimizer name for logs and reports.
    fn name(&self) -> &'static str;

    /// Resets internal momenta.
    fn reset_state(&mut self);

    /// Exports internal momenta for checkpointing.
    fn export_state(&self) -> ServerOptState;

    /// Restores momenta previously produced by
    /// [`export_state`](ServerOpt::export_state).
    ///
    /// # Errors
    /// Returns a description if the state belongs to a different optimizer
    /// or has mismatched buffer shapes; the optimizer is left unchanged.
    fn import_state(&mut self, state: &ServerOptState) -> Result<(), String>;
}

/// Declarative description of a server optimizer, used in experiment
/// configs (serializable; instantiate with [`ServerOptKind::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServerOptKind {
    /// Plain federated averaging with a server learning rate.
    FedAvg {
        /// Server learning rate (1.0 = classic FedAvg).
        lr: f32,
    },
    /// Federated averaging with server momentum (FedMom, Huo et al.).
    FedMom {
        /// Server learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// Adaptive server optimizer (FedAdam, Reddi et al.).
    FedAdam {
        /// Server learning rate.
        lr: f32,
    },
    /// DiLoCo's outer optimizer: SGD with Nesterov momentum.
    DiLoCo {
        /// Outer learning rate η_s.
        lr: f32,
        /// Nesterov momentum coefficient (0.9 in the paper).
        momentum: f32,
    },
}

impl ServerOptKind {
    /// Photon's default: FedAvg with server lr 1.0 (paper Appendix A).
    pub fn photon_default() -> Self {
        ServerOptKind::FedAvg { lr: 1.0 }
    }

    /// The DiLoCo baseline at the paper's chosen η_s = 0.1, m = 0.9.
    pub fn diloco_default() -> Self {
        ServerOptKind::DiLoCo {
            lr: 0.1,
            momentum: 0.9,
        }
    }

    /// Instantiates the optimizer for `param_len` parameters.
    pub fn build(&self, param_len: usize) -> Box<dyn ServerOpt> {
        match *self {
            ServerOptKind::FedAvg { lr } => Box::new(FedAvg::new(lr)),
            ServerOptKind::FedMom { lr, momentum } => {
                Box::new(FedMom::new(lr, momentum, param_len))
            }
            ServerOptKind::FedAdam { lr } => Box::new(FedAdam::new(lr, param_len)),
            ServerOptKind::DiLoCo { lr, momentum } => {
                Box::new(DiLoCo::new(lr, momentum, param_len))
            }
        }
    }
}

/// Plain FedAvg: `θ ← θ − η_s Δ`.
#[derive(Debug, Clone)]
pub struct FedAvg {
    lr: f32,
}

impl FedAvg {
    /// Creates FedAvg with server learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        FedAvg { lr }
    }
}

impl ServerOpt for FedAvg {
    fn apply(&mut self, global: &mut [f32], avg_delta: &[f32], _round: u64) {
        assert_eq!(global.len(), avg_delta.len(), "length mismatch");
        photon_tensor::ops::axpy(-self.lr, avg_delta, global);
    }

    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn reset_state(&mut self) {}

    fn export_state(&self) -> ServerOptState {
        ServerOptState::stateless(self.name())
    }

    fn import_state(&mut self, state: &ServerOptState) -> Result<(), String> {
        state.check(self.name(), &[])
    }
}

/// FedMom / FedAvgM: heavy-ball momentum on the pseudo-gradient.
#[derive(Debug, Clone)]
pub struct FedMom {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl FedMom {
    /// Creates FedMom.
    pub fn new(lr: f32, momentum: f32, param_len: usize) -> Self {
        FedMom {
            lr,
            momentum,
            velocity: vec![0.0; param_len],
        }
    }
}

impl ServerOpt for FedMom {
    fn apply(&mut self, global: &mut [f32], avg_delta: &[f32], _round: u64) {
        assert_eq!(global.len(), self.velocity.len(), "length mismatch");
        assert_eq!(avg_delta.len(), self.velocity.len(), "length mismatch");
        for i in 0..global.len() {
            self.velocity[i] = self.momentum * self.velocity[i] + avg_delta[i];
            global[i] -= self.lr * self.velocity[i];
        }
    }

    fn name(&self) -> &'static str {
        "fedmom"
    }

    fn reset_state(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    fn export_state(&self) -> ServerOptState {
        ServerOptState {
            kind: self.name().to_string(),
            step: 0,
            slots: vec![self.velocity.clone()],
        }
    }

    fn import_state(&mut self, state: &ServerOptState) -> Result<(), String> {
        state.check(self.name(), &[self.velocity.len()])?;
        self.velocity.copy_from_slice(&state.slots[0]);
        Ok(())
    }
}

/// FedAdam: Adam on the pseudo-gradient with β1 = 0.9, β2 = 0.99
/// (Reddi et al. defaults), τ = 1e-3 adaptivity floor.
#[derive(Debug, Clone)]
pub struct FedAdam {
    lr: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl FedAdam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.99;
    const TAU: f32 = 1e-3;

    /// Creates FedAdam.
    pub fn new(lr: f32, param_len: usize) -> Self {
        FedAdam {
            lr,
            m: vec![0.0; param_len],
            v: vec![0.0; param_len],
            t: 0,
        }
    }
}

impl ServerOpt for FedAdam {
    fn apply(&mut self, global: &mut [f32], avg_delta: &[f32], _round: u64) {
        assert_eq!(global.len(), self.m.len(), "length mismatch");
        assert_eq!(avg_delta.len(), self.m.len(), "length mismatch");
        self.t += 1;
        for i in 0..global.len() {
            let g = avg_delta[i];
            self.m[i] = Self::BETA1 * self.m[i] + (1.0 - Self::BETA1) * g;
            self.v[i] = Self::BETA2 * self.v[i] + (1.0 - Self::BETA2) * g * g;
            global[i] -= self.lr * self.m[i] / (self.v[i].sqrt() + Self::TAU);
        }
    }

    fn name(&self) -> &'static str {
        "fedadam"
    }

    fn reset_state(&mut self) {
        self.m.iter_mut().for_each(|v| *v = 0.0);
        self.v.iter_mut().for_each(|v| *v = 0.0);
        self.t = 0;
    }

    fn export_state(&self) -> ServerOptState {
        ServerOptState {
            kind: self.name().to_string(),
            step: self.t,
            slots: vec![self.m.clone(), self.v.clone()],
        }
    }

    fn import_state(&mut self, state: &ServerOptState) -> Result<(), String> {
        state.check(self.name(), &[self.m.len(), self.v.len()])?;
        self.m.copy_from_slice(&state.slots[0]);
        self.v.copy_from_slice(&state.slots[1]);
        self.t = state.step;
        Ok(())
    }
}

/// DiLoCo's outer optimizer: SGD with Nesterov momentum over the
/// pseudo-gradient (Douillard et al.; paper §5.3 and Fig. 8).
#[derive(Debug, Clone)]
pub struct DiLoCo {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl DiLoCo {
    /// Creates the DiLoCo outer optimizer.
    pub fn new(lr: f32, momentum: f32, param_len: usize) -> Self {
        DiLoCo {
            lr,
            momentum,
            velocity: vec![0.0; param_len],
        }
    }

    /// Outer learning rate η_s.
    pub fn lr(&self) -> f32 {
        self.lr
    }
}

impl ServerOpt for DiLoCo {
    fn apply(&mut self, global: &mut [f32], avg_delta: &[f32], _round: u64) {
        assert_eq!(global.len(), self.velocity.len(), "length mismatch");
        assert_eq!(avg_delta.len(), self.velocity.len(), "length mismatch");
        for i in 0..global.len() {
            let g = avg_delta[i];
            self.velocity[i] = self.momentum * self.velocity[i] + g;
            // Nesterov look-ahead.
            global[i] -= self.lr * (g + self.momentum * self.velocity[i]);
        }
    }

    fn name(&self) -> &'static str {
        "diloco"
    }

    fn reset_state(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    fn export_state(&self) -> ServerOptState {
        ServerOptState {
            kind: self.name().to_string(),
            step: 0,
            slots: vec![self.velocity.clone()],
        }
    }

    fn import_state(&mut self, state: &ServerOptState) -> Result<(), String> {
        state.check(self.name(), &[self.velocity.len()])?;
        self.velocity.copy_from_slice(&state.slots[0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_lr1_is_plain_averaging() {
        // global = 1.0; clients moved to 0.4 and 0.8 -> deltas 0.6 and 0.2,
        // avg delta 0.4 -> new global 0.6 = mean of client params.
        let mut global = vec![1.0f32];
        let avg_delta = vec![0.4f32];
        FedAvg::new(1.0).apply(&mut global, &avg_delta, 0);
        assert!((global[0] - 0.6).abs() < 1e-7);
    }

    #[test]
    fn fedavg_smaller_lr_damps_update() {
        let mut g1 = vec![1.0f32];
        let mut g2 = vec![1.0f32];
        FedAvg::new(1.0).apply(&mut g1, &[0.4], 0);
        FedAvg::new(0.1).apply(&mut g2, &[0.4], 0);
        assert!((1.0 - g2[0]) < (1.0 - g1[0]));
    }

    #[test]
    fn fedmom_accumulates_velocity() {
        let mut opt = FedMom::new(1.0, 0.9, 1);
        let mut g = vec![0.0f32];
        opt.apply(&mut g, &[1.0], 0);
        let first_step = -g[0];
        let before = g[0];
        opt.apply(&mut g, &[1.0], 1);
        let second_step = before - g[0];
        assert!(second_step > first_step, "momentum should grow steps");
        opt.reset_state();
        let mut h = vec![0.0f32];
        opt.apply(&mut h, &[1.0], 0);
        assert!((h[0] + first_step).abs() < 1e-6);
    }

    #[test]
    fn fedadam_adapts_to_scale() {
        // FedAdam normalizes by sqrt(v): large and small deltas produce
        // comparable step magnitudes.
        let mut big = FedAdam::new(0.1, 1);
        let mut small = FedAdam::new(0.1, 1);
        let mut g1 = vec![0.0f32];
        let mut g2 = vec![0.0f32];
        for r in 0..20 {
            big.apply(&mut g1, &[100.0], r);
            small.apply(&mut g2, &[0.01], r);
        }
        let ratio = g1[0] / g2[0];
        assert!(ratio < 20.0, "adaptivity failed: ratio={ratio}");
    }

    #[test]
    fn diloco_eta01_takes_smaller_steps_than_fedavg() {
        // This is the mechanism behind the paper's Table 3: DiLoCo's tuned
        // η_s = 0.1 discounts each round's progress relative to FedAvg.
        let mut fedavg_g = vec![1.0f32];
        let mut diloco_g = vec![1.0f32];
        let mut fedavg = FedAvg::new(1.0);
        let mut diloco = DiLoCo::new(0.1, 0.9, 1);
        fedavg.apply(&mut fedavg_g, &[0.5], 0);
        diloco.apply(&mut diloco_g, &[0.5], 0);
        assert!((1.0 - diloco_g[0]) < (1.0 - fedavg_g[0]));
    }

    #[test]
    fn kind_builds_matching_names() {
        let kinds = [
            (ServerOptKind::photon_default(), "fedavg"),
            (
                ServerOptKind::FedMom {
                    lr: 1.0,
                    momentum: 0.9,
                },
                "fedmom",
            ),
            (ServerOptKind::FedAdam { lr: 0.01 }, "fedadam"),
            (ServerOptKind::diloco_default(), "diloco"),
        ];
        for (kind, name) in kinds {
            assert_eq!(kind.build(4).name(), name);
        }
    }

    #[test]
    fn state_export_import_roundtrip() {
        // Warm up each stateful optimizer, export, import into a fresh
        // instance, and check the next step matches bit-for-bit.
        let kinds = [
            ServerOptKind::photon_default(),
            ServerOptKind::FedMom {
                lr: 1.0,
                momentum: 0.9,
            },
            ServerOptKind::FedAdam { lr: 0.01 },
            ServerOptKind::diloco_default(),
        ];
        for kind in kinds {
            let mut warm = kind.build(3);
            let mut g = vec![1.0f32, 2.0, 3.0];
            for r in 0..4 {
                warm.apply(&mut g, &[0.1, -0.2, 0.3], r);
            }
            let state = warm.export_state();
            let mut restored = kind.build(3);
            restored.import_state(&state).unwrap();
            let mut g_warm = g.clone();
            let mut g_restored = g.clone();
            warm.apply(&mut g_warm, &[0.05, 0.05, 0.05], 4);
            restored.apply(&mut g_restored, &[0.05, 0.05, 0.05], 4);
            assert_eq!(g_warm, g_restored, "{} state roundtrip", warm.name());
        }
    }

    #[test]
    fn state_mismatches_rejected() {
        let diloco = ServerOptKind::diloco_default().build(4);
        let state = diloco.export_state();
        // Wrong optimizer kind.
        let mut fedavg = ServerOptKind::photon_default().build(4);
        assert!(fedavg.import_state(&state).is_err());
        // Wrong buffer length.
        let mut small = ServerOptKind::diloco_default().build(3);
        assert!(small.import_state(&state).is_err());
        // Wrong slot count.
        let mut adam = ServerOptKind::FedAdam { lr: 0.01 }.build(4);
        assert!(adam.import_state(&state).is_err());
    }

    #[test]
    fn state_serde_roundtrip() {
        let mut opt = ServerOptKind::FedAdam { lr: 0.01 }.build(2);
        let mut g = vec![0.5f32, -0.5];
        opt.apply(&mut g, &[0.1, 0.2], 0);
        let state = opt.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: ServerOptState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn serde_roundtrip() {
        let kind = ServerOptKind::DiLoCo {
            lr: 0.3,
            momentum: 0.9,
        };
        let json = serde_json::to_string(&kind).unwrap();
        let back: ServerOptKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
    }
}
