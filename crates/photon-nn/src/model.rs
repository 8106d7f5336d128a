use crate::kernels as k;
use crate::{ModelConfig, ParamLayout, ParamRange, PosEncoding};
use photon_tensor::SeedStream;

/// Pre-allocated forward and backward activation buffers for a fixed
/// `(batch, seq)` geometry.
///
/// Allocated once per training pipeline and reused every step; the only
/// per-step work is overwriting buffer contents.
#[derive(Debug, Clone)]
pub struct Activations {
    batch: usize,
    seq: usize,
    encoded: Vec<f32>,
    layers: Vec<LayerActs>,
    lnf: Vec<f32>,
    lnf_mean: Vec<f32>,
    lnf_rstd: Vec<f32>,
    logits: Vec<f32>,
    probs: Vec<f32>,
    losses: Vec<f32>,
    // Attention scratch shared by every layer: nothing reads the masked
    // logits after a layer's forward call (backward takes only its `att`),
    // and each backward call overwrites both gradient blocks.
    preatt: Vec<f32>,
    g_preatt: Vec<f32>,
    g_att: Vec<f32>,
    // A layer's branch gradients, shared by every layer likewise: each is
    // stored and read back within one layer's backward step.
    g: BranchGrads,
    // Gradient mirrors.
    g_encoded: Vec<f32>,
    g_lnf: Vec<f32>,
    g_logits: Vec<f32>,
}

#[derive(Debug, Clone)]
struct LayerActs {
    ln1: Vec<f32>,
    ln1_mean: Vec<f32>,
    ln1_rstd: Vec<f32>,
    qkv: Vec<f32>,
    atty: Vec<f32>,
    att: Vec<f32>,
    attproj: Vec<f32>,
    residual2: Vec<f32>,
    ln2: Vec<f32>,
    ln2_mean: Vec<f32>,
    ln2_rstd: Vec<f32>,
    fch: Vec<f32>,
    fch_gelu: Vec<f32>,
    fcproj: Vec<f32>,
    residual3: Vec<f32>,
    // Gradient of `residual3`: written by the layer above, read by this one.
    g_residual3: Vec<f32>,
}

/// Gradient mirrors of one layer's activations below its output.
#[derive(Debug, Clone)]
struct BranchGrads {
    ln1: Vec<f32>,
    qkv: Vec<f32>,
    atty: Vec<f32>,
    attproj: Vec<f32>,
    residual2: Vec<f32>,
    ln2: Vec<f32>,
    fch: Vec<f32>,
    fch_gelu: Vec<f32>,
    fcproj: Vec<f32>,
}

impl Activations {
    /// Allocates buffers for `batch` sequences of `seq` tokens.
    ///
    /// # Panics
    /// Panics if `batch` or `seq` is zero.
    pub fn new(config: &ModelConfig, batch: usize, seq: usize) -> Self {
        assert!(batch > 0 && seq > 0, "batch and seq must be positive");
        let bt = batch * seq;
        let c = config.d_model;
        let rc = config.mlp_dim();
        let v = config.vocab_size;
        let att_size = batch * config.n_heads * seq * seq;
        let layers = (0..config.n_layers)
            .map(|_| LayerActs {
                ln1: vec![0.0; bt * c],
                ln1_mean: vec![0.0; bt],
                ln1_rstd: vec![0.0; bt],
                qkv: vec![0.0; bt * 3 * c],
                atty: vec![0.0; bt * c],
                att: vec![0.0; att_size],
                attproj: vec![0.0; bt * c],
                residual2: vec![0.0; bt * c],
                ln2: vec![0.0; bt * c],
                ln2_mean: vec![0.0; bt],
                ln2_rstd: vec![0.0; bt],
                fch: vec![0.0; bt * rc],
                fch_gelu: vec![0.0; bt * rc],
                fcproj: vec![0.0; bt * c],
                residual3: vec![0.0; bt * c],
                g_residual3: vec![0.0; bt * c],
            })
            .collect();
        let g = BranchGrads {
            ln1: vec![0.0; bt * c],
            qkv: vec![0.0; bt * 3 * c],
            atty: vec![0.0; bt * c],
            attproj: vec![0.0; bt * c],
            residual2: vec![0.0; bt * c],
            ln2: vec![0.0; bt * c],
            fch: vec![0.0; bt * rc],
            fch_gelu: vec![0.0; bt * rc],
            fcproj: vec![0.0; bt * c],
        };
        Activations {
            batch,
            seq,
            encoded: vec![0.0; bt * c],
            layers,
            lnf: vec![0.0; bt * c],
            lnf_mean: vec![0.0; bt],
            lnf_rstd: vec![0.0; bt],
            logits: vec![0.0; bt * v],
            probs: vec![0.0; bt * v],
            losses: vec![0.0; bt],
            preatt: vec![0.0; att_size],
            g_preatt: vec![0.0; att_size],
            g_att: vec![0.0; att_size],
            g,
            g_encoded: vec![0.0; bt * c],
            g_lnf: vec![0.0; bt * c],
            g_logits: vec![0.0; bt * v],
        }
    }

    /// Batch size these buffers were allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Sequence length these buffers were allocated for.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Post-softmax probabilities `(batch * seq, vocab)` from the last
    /// forward pass with targets.
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Raw logits `(batch * seq, vocab)` from the last forward pass.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Per-position losses from the last forward pass with targets.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }

    /// Overwrites every buffer with `value`. Each pass stores what it
    /// reads later, so a caller that reuses these buffers can fill them
    /// with NaN to show that nothing depends on what a previous pass left.
    pub fn fill(&mut self, value: f32) {
        let g = &mut self.g;
        let mut bufs = vec![
            &mut self.encoded,
            &mut self.lnf,
            &mut self.lnf_mean,
            &mut self.lnf_rstd,
            &mut self.logits,
            &mut self.probs,
            &mut self.losses,
            &mut self.preatt,
            &mut self.g_preatt,
            &mut self.g_att,
            &mut self.g_encoded,
            &mut self.g_lnf,
            &mut self.g_logits,
            &mut g.ln1,
            &mut g.qkv,
            &mut g.atty,
            &mut g.attproj,
            &mut g.residual2,
            &mut g.ln2,
            &mut g.fch,
            &mut g.fch_gelu,
            &mut g.fcproj,
        ];
        for l in &mut self.layers {
            bufs.extend([
                &mut l.ln1,
                &mut l.ln1_mean,
                &mut l.ln1_rstd,
                &mut l.qkv,
                &mut l.atty,
                &mut l.att,
                &mut l.attproj,
                &mut l.residual2,
                &mut l.ln2,
                &mut l.ln2_mean,
                &mut l.ln2_rstd,
                &mut l.fch,
                &mut l.fch_gelu,
                &mut l.fcproj,
                &mut l.residual3,
                &mut l.g_residual3,
            ]);
        }
        for buf in bufs {
            buf.fill(value);
        }
    }

    /// Zeroes the gradients of the layers' inputs and outputs: with
    /// `residual2` (zeroed where each layer's backward step starts) the
    /// only activation gradients with two producers — the residual add and
    /// the layernorm below it both accumulate into them. Every other
    /// gradient buffer is stored whole by the one kernel that produces it.
    fn zero_stream_grads(&mut self) {
        self.g_encoded.fill(0.0);
        for l in &mut self.layers {
            l.g_residual3.fill(0.0);
        }
    }
}

/// A decoder-only transformer with ALiBi attention and tied embeddings.
///
/// All parameters live in one flat `f32` buffer addressed through a
/// [`ParamLayout`]; gradients use an identically laid-out buffer supplied by
/// the caller (see [`Gpt::grad_buffer`]).
#[derive(Debug, Clone)]
pub struct Gpt {
    config: ModelConfig,
    layout: ParamLayout,
    params: Vec<f32>,
    pos: PosEncoding,
}

impl Gpt {
    /// Creates a model with GPT-2-style initialization: truncated-normal
    /// embeddings (std 0.02), normal projections (std 0.02, residual
    /// projections scaled by `1/sqrt(2 L)`), unit layernorm weights.
    pub fn new(config: ModelConfig, rng: &mut SeedStream) -> Self {
        Gpt::with_positions(config, PosEncoding::Alibi, rng)
    }

    /// Creates a model with an explicit positional scheme
    /// ([`PosEncoding::Learned`] adds a trained `(seq, d)` embedding table
    /// and disables the ALiBi attention bias).
    pub fn with_positions(config: ModelConfig, pos: PosEncoding, rng: &mut SeedStream) -> Self {
        config.validate();
        let layout = ParamLayout::with_positions(config, pos);
        let mut params = vec![0.0f32; layout.total()];
        let std = 0.02f32;
        let resid_std = std / ((2 * config.n_layers) as f32).sqrt();

        let wte = layout.wte;
        photon_tensor::trunc_normal_fill(&mut params[wte.start..wte.end()], 0.0, std, rng);
        for l in 0..config.n_layers {
            let b = *layout.block(l);
            fill_range(&mut params, b.ln1w, 1.0);
            fill_range(&mut params, b.ln2w, 1.0);
            photon_tensor::normal_fill(&mut params[b.qkvw.start..b.qkvw.end()], 0.0, std, rng);
            photon_tensor::normal_fill(
                &mut params[b.attprojw.start..b.attprojw.end()],
                0.0,
                resid_std,
                rng,
            );
            photon_tensor::normal_fill(&mut params[b.fcw.start..b.fcw.end()], 0.0, std, rng);
            photon_tensor::normal_fill(
                &mut params[b.fcprojw.start..b.fcprojw.end()],
                0.0,
                resid_std,
                rng,
            );
        }
        fill_range(&mut params, layout.lnfw, 1.0);
        if let Some(wpe) = layout.wpe {
            photon_tensor::trunc_normal_fill(&mut params[wpe.start..wpe.end()], 0.0, 0.02, rng);
        }
        Gpt {
            config,
            layout,
            params,
            pos,
        }
    }

    /// Reconstructs a model from a flat parameter vector (e.g. received
    /// from the aggregator). The positional scheme is inferred from the
    /// vector length (learned positions add a `(seq, d)` block).
    ///
    /// # Panics
    /// Panics if `params.len()` matches neither scheme's layout.
    pub fn from_params(config: ModelConfig, params: Vec<f32>) -> Self {
        let alibi = ParamLayout::new(config);
        let layout = if params.len() == alibi.total() {
            alibi
        } else {
            let learned = ParamLayout::with_positions(config, PosEncoding::Learned);
            assert_eq!(
                params.len(),
                learned.total(),
                "parameter vector length mismatch"
            );
            learned
        };
        let pos = if layout.wpe.is_some() {
            PosEncoding::Learned
        } else {
            PosEncoding::Alibi
        };
        Gpt {
            config,
            layout,
            params,
            pos,
        }
    }

    /// The positional scheme this model was built with.
    pub fn pos_encoding(&self) -> PosEncoding {
        self.pos
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter layout.
    pub fn layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flat parameter buffer.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable flat parameter buffer (used by optimizers).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Overwrites all parameters from a slice.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn set_params(&mut self, new: &[f32]) {
        assert_eq!(new.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(new);
    }

    /// Allocates a zeroed gradient buffer matching the parameter layout.
    pub fn grad_buffer(&self) -> Vec<f32> {
        vec![0.0; self.params.len()]
    }

    /// Consumes the model, returning the flat parameter buffer.
    pub fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Runs the forward pass over `tokens` `(batch * seq)`.
    ///
    /// With `targets`, fills probabilities/losses and returns the mean
    /// cross-entropy; without, computes logits only and returns `None`.
    ///
    /// # Panics
    /// Panics if buffer geometry disagrees with `acts`.
    pub fn forward(
        &self,
        tokens: &[u32],
        targets: Option<&[u32]>,
        acts: &mut Activations,
    ) -> Option<f32> {
        let (b, t) = (acts.batch, acts.seq);
        let bt = b * t;
        assert_eq!(tokens.len(), bt, "token buffer geometry mismatch");
        let c = self.config.d_model;
        let rc = self.config.mlp_dim();
        let v = self.config.vocab_size;
        let nh = self.config.n_heads;
        let p = &self.params;
        let wte = &p[self.layout.wte.start..self.layout.wte.end()];

        k::encoder_forward(&mut acts.encoded, tokens, wte, c, v);
        if let Some(wpe_r) = self.layout.wpe {
            // Learned absolute positions: encoded[b, t, :] += wpe[t, :].
            let wpe = &p[wpe_r.start..wpe_r.end()];
            for bi in 0..b {
                for ti in 0..t {
                    let row = &mut acts.encoded[(bi * t + ti) * c..(bi * t + ti + 1) * c];
                    for (e, &w) in row.iter_mut().zip(&wpe[ti * c..(ti + 1) * c]) {
                        *e += w;
                    }
                }
            }
        }

        for l in 0..self.config.n_layers {
            let blk = *self.layout.block(l);
            let (prev, cur) = acts.layers.split_at_mut(l);
            let res_in: &[f32] = if l == 0 {
                &acts.encoded
            } else {
                &prev[l - 1].residual3
            };
            let layer = &mut cur[0];

            k::layernorm_forward(
                &mut layer.ln1,
                &mut layer.ln1_mean,
                &mut layer.ln1_rstd,
                res_in,
                range(p, blk.ln1w),
                range(p, blk.ln1b),
                bt,
                c,
            );
            k::matmul_forward(
                &mut layer.qkv,
                &layer.ln1,
                range(p, blk.qkvw),
                range(p, blk.qkvb),
                bt,
                c,
                3 * c,
            );
            k::attention_forward(
                &mut layer.atty,
                &mut acts.preatt,
                &mut layer.att,
                &layer.qkv,
                b,
                t,
                c,
                nh,
                self.pos == PosEncoding::Alibi,
            );
            k::matmul_forward(
                &mut layer.attproj,
                &layer.atty,
                range(p, blk.attprojw),
                range(p, blk.attprojb),
                bt,
                c,
                c,
            );
            k::residual_forward(&mut layer.residual2, res_in, &layer.attproj);
            k::layernorm_forward(
                &mut layer.ln2,
                &mut layer.ln2_mean,
                &mut layer.ln2_rstd,
                &layer.residual2,
                range(p, blk.ln2w),
                range(p, blk.ln2b),
                bt,
                c,
            );
            k::matmul_forward(
                &mut layer.fch,
                &layer.ln2,
                range(p, blk.fcw),
                range(p, blk.fcb),
                bt,
                c,
                rc,
            );
            k::gelu_forward(&mut layer.fch_gelu, &layer.fch);
            k::matmul_forward(
                &mut layer.fcproj,
                &layer.fch_gelu,
                range(p, blk.fcprojw),
                range(p, blk.fcprojb),
                bt,
                rc,
                c,
            );
            k::residual_forward(&mut layer.residual3, &layer.residual2, &layer.fcproj);
        }

        let final_res: &[f32] = if self.config.n_layers == 0 {
            &acts.encoded
        } else {
            &acts.layers[self.config.n_layers - 1].residual3
        };
        k::layernorm_forward(
            &mut acts.lnf,
            &mut acts.lnf_mean,
            &mut acts.lnf_rstd,
            final_res,
            range(p, self.layout.lnfw),
            range(p, self.layout.lnfb),
            bt,
            c,
        );
        k::matmul_forward(&mut acts.logits, &acts.lnf, wte, &[], bt, c, v);

        targets.map(|tg| {
            assert_eq!(tg.len(), bt, "target buffer geometry mismatch");
            k::cross_entropy_forward(&mut acts.probs, &mut acts.losses, &acts.logits, tg, bt, v)
        })
    }

    /// Runs the backward pass, accumulating parameter gradients into
    /// `grads`. Must follow a [`Gpt::forward`] call with targets on the same
    /// `acts`.
    ///
    /// # Panics
    /// Panics if buffer geometry disagrees.
    pub fn backward(
        &self,
        tokens: &[u32],
        targets: &[u32],
        acts: &mut Activations,
        grads: &mut [f32],
    ) {
        let (b, t) = (acts.batch, acts.seq);
        let bt = b * t;
        assert_eq!(tokens.len(), bt, "token buffer geometry mismatch");
        assert_eq!(targets.len(), bt, "target buffer geometry mismatch");
        assert_eq!(grads.len(), self.params.len(), "grad buffer mismatch");
        let c = self.config.d_model;
        let rc = self.config.mlp_dim();
        let v = self.config.vocab_size;
        let nh = self.config.n_heads;
        let p = &self.params;

        acts.zero_stream_grads();
        k::cross_entropy_backward(&mut acts.g_logits, &acts.probs, targets, bt, v);

        // Tied LM head: gradient flows into g_lnf and dwte.
        {
            let wte_r = self.layout.wte;
            let dwte = &mut grads[wte_r.start..wte_r.end()];
            let wte = &p[wte_r.start..wte_r.end()];
            k::matmul_backward(
                &mut acts.g_lnf,
                dwte,
                &mut [],
                &acts.g_logits,
                &acts.lnf,
                wte,
                bt,
                c,
                v,
            );
        }

        // Final layernorm.
        {
            let n_layers = self.config.n_layers;
            let (dw, db) = wb_mut(grads, self.layout.lnfw, self.layout.lnfb);
            let (final_res, dinp): (&[f32], &mut [f32]) = if n_layers == 0 {
                (&acts.encoded, &mut acts.g_encoded)
            } else {
                let LayerActs {
                    residual3,
                    g_residual3,
                    ..
                } = &mut acts.layers[n_layers - 1];
                (residual3, g_residual3)
            };
            k::layernorm_backward(
                dinp,
                dw,
                db,
                &acts.g_lnf,
                final_res,
                range(p, self.layout.lnfw),
                &acts.lnf_mean,
                &acts.lnf_rstd,
                bt,
                c,
            );
        }

        for l in (0..self.config.n_layers).rev() {
            let blk = *self.layout.block(l);
            let (prev, cur) = acts.layers.split_at_mut(l);
            let layer = &mut cur[0];
            let g = &mut acts.g;
            let (res_in, g_res_in): (&[f32], &mut [f32]) = if l == 0 {
                (&acts.encoded, &mut acts.g_encoded)
            } else {
                let pl = &mut prev[l - 1];
                (&pl.residual3, &mut pl.g_residual3)
            };

            // residual3 = residual2 + fcproj
            g.residual2.fill(0.0);
            k::residual_backward(&mut g.residual2, &mut g.fcproj, &layer.g_residual3);
            {
                let (dw, db) = wb_mut(grads, blk.fcprojw, blk.fcprojb);
                k::matmul_backward(
                    &mut g.fch_gelu,
                    dw,
                    db,
                    &g.fcproj,
                    &layer.fch_gelu,
                    range(p, blk.fcprojw),
                    bt,
                    rc,
                    c,
                );
            }
            k::gelu_backward(&mut g.fch, &layer.fch, &g.fch_gelu);
            {
                let (dw, db) = wb_mut(grads, blk.fcw, blk.fcb);
                k::matmul_backward(
                    &mut g.ln2,
                    dw,
                    db,
                    &g.fch,
                    &layer.ln2,
                    range(p, blk.fcw),
                    bt,
                    c,
                    rc,
                );
            }
            {
                let (dw, db) = wb_mut(grads, blk.ln2w, blk.ln2b);
                k::layernorm_backward(
                    &mut g.residual2,
                    dw,
                    db,
                    &g.ln2,
                    &layer.residual2,
                    range(p, blk.ln2w),
                    &layer.ln2_mean,
                    &layer.ln2_rstd,
                    bt,
                    c,
                );
            }
            // residual2 = res_in + attproj
            k::residual_backward(g_res_in, &mut g.attproj, &g.residual2);
            {
                let (dw, db) = wb_mut(grads, blk.attprojw, blk.attprojb);
                k::matmul_backward(
                    &mut g.atty,
                    dw,
                    db,
                    &g.attproj,
                    &layer.atty,
                    range(p, blk.attprojw),
                    bt,
                    c,
                    c,
                );
            }
            k::attention_backward(
                &mut g.qkv,
                &mut acts.g_preatt,
                &mut acts.g_att,
                &g.atty,
                &layer.qkv,
                &layer.att,
                b,
                t,
                c,
                nh,
            );
            {
                let (dw, db) = wb_mut(grads, blk.qkvw, blk.qkvb);
                k::matmul_backward(
                    &mut g.ln1,
                    dw,
                    db,
                    &g.qkv,
                    &layer.ln1,
                    range(p, blk.qkvw),
                    bt,
                    c,
                    3 * c,
                );
            }
            {
                let (dw, db) = wb_mut(grads, blk.ln1w, blk.ln1b);
                k::layernorm_backward(
                    g_res_in,
                    dw,
                    db,
                    &g.ln1,
                    res_in,
                    range(p, blk.ln1w),
                    &layer.ln1_mean,
                    &layer.ln1_rstd,
                    bt,
                    c,
                );
            }
        }

        if let Some(wpe_r) = self.layout.wpe {
            // dwpe[t, :] += sum over batch of g_encoded[b, t, :].
            let dwpe = &mut grads[wpe_r.start..wpe_r.end()];
            for bi in 0..b {
                for ti in 0..t {
                    let g = &acts.g_encoded[(bi * t + ti) * c..(bi * t + ti + 1) * c];
                    for (d, &gv) in dwpe[ti * c..(ti + 1) * c].iter_mut().zip(g) {
                        *d += gv;
                    }
                }
            }
        }
        let wte_r = self.layout.wte;
        k::encoder_backward(
            &mut grads[wte_r.start..wte_r.end()],
            &acts.g_encoded,
            tokens,
            c,
        );
    }
}

fn range(p: &[f32], r: ParamRange) -> &[f32] {
    &p[r.start..r.end()]
}

fn fill_range(p: &mut [f32], r: ParamRange, value: f32) {
    p[r.start..r.end()].iter_mut().for_each(|v| *v = value);
}

/// Splits mutable weight and bias gradient slices out of the flat gradient
/// buffer. Relies on the layout placing each bias immediately after its
/// weight.
fn wb_mut(grads: &mut [f32], w: ParamRange, b: ParamRange) -> (&mut [f32], &mut [f32]) {
    debug_assert_eq!(w.end(), b.start, "bias must follow weight in layout");
    let s = &mut grads[w.start..b.end()];
    s.split_at_mut(w.len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Gpt, Activations, Vec<u32>, Vec<u32>) {
        let cfg = ModelConfig {
            n_layers: 2,
            d_model: 8,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 11,
            seq_len: 6,
        };
        let mut rng = SeedStream::new(42);
        let model = Gpt::new(cfg, &mut rng);
        let acts = Activations::new(&cfg, 2, 6);
        let tokens: Vec<u32> = (0..12).map(|i| (i * 3 % 11) as u32).collect();
        let targets: Vec<u32> = (0..12).map(|i| ((i * 3 + 1) % 11) as u32).collect();
        (model, acts, tokens, targets)
    }

    #[test]
    fn forward_produces_finite_loss_near_uniform_at_init() {
        let (model, mut acts, tokens, targets) = tiny();
        let loss = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        assert!(loss.is_finite());
        // Random init => loss near ln(V).
        let uniform = (model.config().vocab_size as f32).ln();
        assert!(
            (loss - uniform).abs() < 1.0,
            "loss={loss} uniform={uniform}"
        );
    }

    #[test]
    fn forward_without_targets_returns_none() {
        let (model, mut acts, tokens, _) = tiny();
        assert!(model.forward(&tokens, None, &mut acts).is_none());
        assert!(acts.logits().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn full_model_gradient_check() {
        let (mut model, mut acts, tokens, targets) = tiny();
        let mut grads = model.grad_buffer();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut grads);

        // Check a spread of parameters with central differences.
        let n = model.param_count();
        let check_idx: Vec<usize> = vec![
            0,
            7,
            n / 5,
            2 * n / 5,
            n / 2,
            3 * n / 5,
            4 * n / 5,
            n - 3,
            n - 1,
        ];
        let h = 1e-2f32;
        for &i in &check_idx {
            let orig = model.params()[i];
            model.params_mut()[i] = orig + h;
            let up = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
            model.params_mut()[i] = orig - h;
            let down = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
            model.params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            let an = grads[i];
            assert!(
                (fd - an).abs() < 5e-3 + 0.15 * fd.abs().max(an.abs()),
                "param {i}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn backward_accumulates() {
        let (model, mut acts, tokens, targets) = tiny();
        let mut g1 = model.grad_buffer();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut g1);
        let mut g2 = g1.clone();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-4 + 1e-3 * a.abs(), "{a} {b}");
        }
    }

    #[test]
    fn sgd_steps_reduce_loss() {
        let (mut model, mut acts, tokens, targets) = tiny();
        let mut grads = model.grad_buffer();
        let first = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        let mut last = first;
        for _ in 0..30 {
            grads.iter_mut().for_each(|g| *g = 0.0);
            model.forward(&tokens, Some(&targets), &mut acts);
            model.backward(&tokens, &targets, &mut acts, &mut grads);
            let params = model.params_mut();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 0.1 * g;
            }
            last = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        }
        assert!(
            last < first * 0.8,
            "training did not reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn learned_positions_gradient_check() {
        let cfg = ModelConfig {
            n_layers: 1,
            d_model: 8,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 11,
            seq_len: 6,
        };
        let mut rng = SeedStream::new(9);
        let mut model = Gpt::with_positions(cfg, PosEncoding::Learned, &mut rng);
        assert_eq!(model.pos_encoding(), PosEncoding::Learned);
        let mut acts = Activations::new(&cfg, 2, 6);
        let tokens: Vec<u32> = (0..12).map(|i| (i * 3 % 11) as u32).collect();
        let targets: Vec<u32> = (0..12).map(|i| ((i * 3 + 1) % 11) as u32).collect();
        let mut grads = model.grad_buffer();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut grads);

        // Finite differences, including indices inside the wpe block.
        let n = model.param_count();
        let wpe_start = n - cfg.seq_len * cfg.d_model;
        let h = 1e-2f32;
        for &i in &[0usize, n / 3, wpe_start, wpe_start + 5, n - 1] {
            let orig = model.params()[i];
            model.params_mut()[i] = orig + h;
            let up = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
            model.params_mut()[i] = orig - h;
            let down = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
            model.params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            let an = grads[i];
            assert!(
                (fd - an).abs() < 5e-3 + 0.15 * fd.abs().max(an.abs()),
                "param {i}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn from_params_infers_positional_scheme() {
        let cfg = ModelConfig::proxy_tiny();
        let mut rng = SeedStream::new(1);
        let alibi = Gpt::new(cfg, &mut rng);
        let learned = Gpt::with_positions(cfg, PosEncoding::Learned, &mut rng);
        assert!(learned.param_count() > alibi.param_count());
        let a = Gpt::from_params(cfg, alibi.params().to_vec());
        let l = Gpt::from_params(cfg, learned.params().to_vec());
        assert_eq!(a.pos_encoding(), PosEncoding::Alibi);
        assert_eq!(l.pos_encoding(), PosEncoding::Learned);
    }

    #[test]
    fn learned_positions_train() {
        let cfg = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 17,
            seq_len: 8,
        };
        let mut rng = SeedStream::new(3);
        let mut model = Gpt::with_positions(cfg, PosEncoding::Learned, &mut rng);
        let mut acts = Activations::new(&cfg, 2, 8);
        let tokens: Vec<u32> = (0..16).map(|i| (i % 17) as u32).collect();
        let targets: Vec<u32> = (0..16).map(|i| ((i + 1) % 17) as u32).collect();
        let mut grads = model.grad_buffer();
        let first = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        for _ in 0..30 {
            grads.iter_mut().for_each(|g| *g = 0.0);
            model.forward(&tokens, Some(&targets), &mut acts);
            model.backward(&tokens, &targets, &mut acts, &mut grads);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                *p -= 0.1 * g;
            }
        }
        let last = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        assert!(last < first * 0.8, "{first} -> {last}");
    }

    #[test]
    fn from_params_roundtrip_and_determinism() {
        let (model, mut acts, tokens, targets) = tiny();
        let clone = Gpt::from_params(*model.config(), model.params().to_vec());
        let l1 = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        let l2 = clone.forward(&tokens, Some(&targets), &mut acts).unwrap();
        assert_eq!(l1, l2);
    }

    #[test]
    #[should_panic(expected = "parameter vector length mismatch")]
    fn from_params_validates_length() {
        let cfg = ModelConfig::proxy_tiny();
        Gpt::from_params(cfg, vec![0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn forward_validates_geometry() {
        let (model, mut acts, _, _) = tiny();
        model.forward(&[0, 1, 2], None, &mut acts);
    }
}
