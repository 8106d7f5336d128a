//! Where one train step goes at the three benchmark shapes (`cargo run
//! --release -p photon-nn --example step_profile`): median ms per step on one
//! thread for the two passes and for each kernel family timed alone at the
//! step's shapes and call counts. A kernel timed alone keeps its operands in
//! cache; what the step adds lands in `else`, with layernorm, residuals, bias
//! and loss. Public API only.

use photon_nn::{kernels as k, Activations, Gpt, ModelConfig};
use photon_tensor::backend::{self, Backend};
use photon_tensor::ops::{gemm_auto, gemm_serial, pool, Gemm};
use photon_tensor::SeedStream;
use std::time::Instant;

/// Median milliseconds per call of `f`.
fn ms(mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0; 61];
    for s in &mut samples {
        let start = Instant::now();
        f();
        *s = start.elapsed().as_secs_f64() * 1e3;
    }
    samples.sort_by(f64::total_cmp);
    samples[30]
}

fn randv(n: usize, rng: &mut SeedStream) -> Vec<f32> {
    (0..n).map(|_| rng.next_normal() * 0.5).collect()
}

/// The causal row-block GEMMs of `units` attention units, as `kernels.rs`
/// issues them: `S`, `O` forward; `dP`, `dQ`, `dV`, `dK` backward.
fn unit_gemms(bk: &dyn Backend, units: usize, t: usize, c: usize, hs: usize, bwd: bool) -> f64 {
    let mut rng = SeedStream::new(2);
    let (qkv, d_o) = (randv(t * 3 * c, &mut rng), randv(t * c, &mut rng));
    let (mut tt, mut out) = (randv(t * t, &mut rng), vec![0.0; t * 3 * c]);
    let once = |tt: &mut [f32], out: &mut [f32]| {
        for i0 in (0..t).step_by(16) {
            let (i1, m) = ((i0 + 16).min(t), 16.min(t - i0));
            let (q, o) = (&qkv[i0 * 3 * c..], &mut out[i0 * 3 * c..]);
            let nt = Gemm::new(m, hs, i1).transpose_b().lda(3 * c).ldb(3 * c);
            gemm_serial(bk, nt.ldc(t), q, &qkv[c..], &mut tt[i0 * t..]);
            let nn = Gemm::new(m, i1, hs).lda(t).ldb(3 * c).ldc(3 * c);
            gemm_serial(bk, nn, &tt[i0 * t..], &qkv[2 * c..], o);
            if bwd {
                let tn = Gemm::new(m, t - i0, hs).transpose_a().lda(t).ldb(c);
                gemm_serial(bk, tn.ldc(3 * c), &tt[i0 * t + i0..], &d_o[i0 * c..], o);
                gemm_serial(bk, tn.ldc(3 * c), &tt[i0 * t + i0..], &d_o[i0 * c..], o);
            }
        }
    };
    ms(|| (0..units).for_each(|_| once(&mut tt, &mut out)))
}

fn profile(name: &str, cfg: ModelConfig, b: usize) {
    let mut rng = SeedStream::new(1);
    let (t, c, nh, layers) = (cfg.seq_len, cfg.d_model, cfg.n_heads, cfg.n_layers);
    let (bt, rc, v, l) = (b * t, cfg.mlp_dim(), cfg.vocab_size, layers as f64);
    let model = Gpt::new(cfg, &mut rng);
    let mut acts = Activations::new(&cfg, b, t);
    let mut grads = model.grad_buffer();
    let tokens: Vec<u32> = (0..bt).map(|_| rng.next_below(v) as u32).collect();
    let fwd = ms(|| assert!(model.forward(&tokens, Some(&tokens), &mut acts).is_some()));
    let bwd = ms(|| model.backward(&tokens, &tokens, &mut acts, &mut grads));

    // (in, out) of qkv, attproj, fc, fcproj (once a layer) and the LM head.
    let linears = [(c, 3 * c), (c, c), (c, rc), (rc, c), (c, v)];
    let [mut mm_fwd, mut mm_dinp, mut mm_dw] = [0.0; 3];
    for (ic, oc) in linears {
        let calls = if oc == v { 1.0 } else { l };
        let (x, w) = (randv(bt * ic, &mut rng), randv(oc * ic, &mut rng));
        let (dy, mut y) = (randv(bt * oc, &mut rng), vec![0.0; bt * oc]);
        let (mut dx, mut dw) = (vec![0.0; bt * ic], vec![0.0; oc * ic]);
        mm_fwd += calls * ms(|| k::matmul_forward(&mut y, &x, &w, &[], bt, ic, oc));
        mm_dinp += calls * ms(|| gemm_auto(Gemm::new(bt, oc, ic), &dy, &w, &mut dx));
        let dw_spec = Gemm::new(oc, bt, ic).transpose_a().beta(1.0);
        mm_dw += calls * ms(|| gemm_auto(dw_spec, &dy, &x, &mut dw));
    }

    let (units, tt, hs) = (b * nh, t * t, c / nh);
    let (qkv, dout) = (randv(bt * 3 * c, &mut rng), randv(bt * c, &mut rng));
    let (mut o, mut dqkv) = (vec![0.0; bt * c], vec![0.0; bt * 3 * c]);
    let [mut pre, mut att, mut dpre, mut datt] = [(); 4].map(|_| vec![0.0; units * tt]);
    let (p, a) = (&mut pre, &mut att);
    let att_fwd = l * ms(|| k::attention_forward(&mut o, p, a, &qkv, b, t, c, nh, true));
    let (dq, ds, dp) = (&mut dqkv, &mut dpre, &mut datt);
    let att_bwd = l * ms(|| k::attention_backward(dq, ds, dp, &dout, &qkv, &att, b, t, c, nh));
    let bk = backend::active();
    let fwd_gemm = l * unit_gemms(bk, units, t, c, hs, false);
    let bwd_gemm = l * unit_gemms(bk, units, t, c, hs, true);
    let logits = randv(tt, &mut rng);
    let softmax = l * ms(|| {
        for (pre_u, att_u) in pre.chunks_exact_mut(tt).zip(att.chunks_exact_mut(tt)) {
            pre_u.copy_from_slice(&logits);
            bk.causal_softmax(att_u, pre_u, t, 0.25, 0.5);
        }
    });
    let (h, dh) = (randv(bt * rc, &mut rng), randv(bt * rc, &mut rng));
    let mut g = vec![0.0; bt * rc];
    let gelu = l * (ms(|| k::gelu_forward(&mut g, &h)) + ms(|| k::gelu_backward(&mut g, &h, &dh)));
    let mut stream = vec![1.0f32; (2 * layers + 1) * bt * c];
    let zeroing = ms(|| stream.fill(0.0));

    let (step, per_s) = (fwd + bwd, bt as f64 / (fwd + bwd) * 1e3);
    let other = step - (mm_fwd + mm_dinp + mm_dw + att_fwd + att_bwd + gelu + zeroing);
    let (rest_f, rest_b) = (att_fwd - fwd_gemm - softmax, att_bwd - bwd_gemm);
    println!("{name} B={b}: step {step:.2} ms = fwd {fwd:.2} + bwd {bwd:.2}, {per_s:.0} tokens/s");
    println!("  matmul     fwd {mm_fwd:.2}  dinp {mm_dinp:.2}  dweight {mm_dw:.2}");
    println!("  attention  fwd {att_fwd:.2} = gemm {fwd_gemm:.2} + softmax {softmax:.2} + rest {rest_f:.2}");
    println!("             bwd {att_bwd:.2} = gemm {bwd_gemm:.2} + row passes, rest {rest_b:.2}");
    println!("  gelu {gelu:.2}  zeroing {zeroing:.2}  else {other:.2}");
}

fn main() {
    println!("backend: {}, one thread", backend::active_name());
    pool::with_parallelism(1, || {
        profile("proxy_tiny", ModelConfig::proxy_tiny(), 4);
        profile("proxy_small", ModelConfig::proxy_small(), 8);
        profile("proxy_large", ModelConfig::proxy_large(), 1);
    });
}
