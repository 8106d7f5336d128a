//! Property-based tests for the transformer: structural invariants that
//! must hold for arbitrary (small) architectures and inputs.

use photon_nn::{kernels, Activations, Gpt, ModelConfig};
use photon_tensor::SeedStream;
use proptest::prelude::*;

/// Textbook causal attention, forward and backward, in plain scalar loops
/// with every sum taken in ascending index order: an oracle that shares no
/// code with the kernels or the backends. Returns `(out, preatt, att, dinp)`.
fn naive_attention(
    inp: &[f32],
    dout: &[f32],
    (b, t, nh, hs): (usize, usize, usize, usize),
    alibi: bool,
) -> [Vec<f32>; 4] {
    let c = nh * hs;
    let at =
        |bi: usize, ti: usize, part: usize, h: usize| (bi * t + ti) * 3 * c + part * c + h * hs;
    let scale = 1.0 / (hs as f32).sqrt();
    let mut out = vec![0.0f32; b * t * c];
    let mut preatt = vec![0.0f32; b * nh * t * t];
    let mut att = vec![0.0f32; b * nh * t * t];
    let mut dinp = vec![0.0f32; b * t * 3 * c];
    for bi in 0..b {
        for h in 0..nh {
            let slope = if alibi {
                kernels::alibi_slope(h, nh)
            } else {
                0.0
            };
            let unit = (bi * nh + h) * t * t;
            for ti in 0..t {
                let row = unit + ti * t;
                for t2 in 0..=ti {
                    let mut dot = 0.0f32;
                    for p in 0..hs {
                        dot += inp[at(bi, ti, 0, h) + p] * inp[at(bi, t2, 1, h) + p];
                    }
                    preatt[row + t2] = dot * scale - slope * (ti - t2) as f32;
                }
                let max = preatt[row..=row + ti]
                    .iter()
                    .fold(f32::NEG_INFINITY, |m, &x| m.max(x));
                let mut sum = 0.0f32;
                for t2 in 0..=ti {
                    att[row + t2] = (preatt[row + t2] - max).exp();
                    sum += att[row + t2];
                }
                let inv = 1.0 / sum;
                for t2 in 0..=ti {
                    att[row + t2] *= inv;
                    for p in 0..hs {
                        out[(bi * t + ti) * c + h * hs + p] +=
                            att[row + t2] * inp[at(bi, t2, 2, h) + p];
                    }
                }
            }
            for ti in 0..t {
                let row = unit + ti * t;
                let d_o = &dout[(bi * t + ti) * c + h * hs..][..hs];
                let mut datt = vec![0.0f32; ti + 1];
                let mut rowdot = 0.0f32;
                for t2 in 0..=ti {
                    for p in 0..hs {
                        datt[t2] += d_o[p] * inp[at(bi, t2, 2, h) + p];
                        dinp[at(bi, t2, 2, h) + p] += att[row + t2] * d_o[p];
                    }
                    rowdot += att[row + t2] * datt[t2];
                }
                for t2 in 0..=ti {
                    let ds = att[row + t2] * (datt[t2] - rowdot) * scale;
                    for p in 0..hs {
                        dinp[at(bi, ti, 0, h) + p] += ds * inp[at(bi, t2, 1, h) + p];
                        dinp[at(bi, t2, 1, h) + p] += ds * inp[at(bi, ti, 0, h) + p];
                    }
                }
            }
        }
    }
    [out, preatt, att, dinp]
}

fn arb_config() -> impl Strategy<Value = ModelConfig> {
    (1usize..3, 1usize..3, 1usize..3, 4usize..20, 2usize..8).prop_map(
        |(n_layers, heads_pow, exp_ratio, vocab, seq)| {
            let n_heads = heads_pow; // 1 or 2
            ModelConfig {
                n_layers,
                d_model: n_heads * 8,
                n_heads,
                exp_ratio,
                vocab_size: vocab,
                seq_len: seq,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The loss is finite and near ln(V) at init for any architecture.
    #[test]
    fn init_loss_is_finite_and_near_uniform(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let model = Gpt::new(cfg, &mut rng);
        let (b, t) = (2usize, cfg.seq_len);
        let mut acts = Activations::new(&cfg, b, t);
        let tokens: Vec<u32> = (0..b * t).map(|i| (i % cfg.vocab_size) as u32).collect();
        let targets: Vec<u32> = (0..b * t).map(|i| ((i + 1) % cfg.vocab_size) as u32).collect();
        let loss = model.forward(&tokens, Some(&targets), &mut acts).unwrap();
        prop_assert!(loss.is_finite());
        let uniform = (cfg.vocab_size as f32).ln();
        prop_assert!((loss - uniform).abs() < 2.0, "loss {loss} vs ln(V) {uniform}");
    }

    /// Causality: logits at position p depend only on tokens <= p.
    #[test]
    fn causal_masking_holds(cfg in arb_config(), seed in any::<u64>()) {
        prop_assume!(cfg.seq_len >= 3);
        let mut rng = SeedStream::new(seed);
        let model = Gpt::new(cfg, &mut rng);
        let t = cfg.seq_len;
        let mut acts = Activations::new(&cfg, 1, t);
        let mut tokens: Vec<u32> = (0..t).map(|i| (i % cfg.vocab_size) as u32).collect();
        model.forward(&tokens, None, &mut acts);
        let cut = t / 2;
        let before = acts.logits()[..(cut + 1) * cfg.vocab_size].to_vec();
        // Change every token after `cut`.
        for x in tokens.iter_mut().skip(cut + 1) {
            *x = (*x + 1) % cfg.vocab_size as u32;
        }
        model.forward(&tokens, None, &mut acts);
        let after = &acts.logits()[..(cut + 1) * cfg.vocab_size];
        prop_assert_eq!(&before[..], after);
    }

    /// Gradients are linear in the loss: two backward passes accumulate to
    /// exactly twice one pass.
    #[test]
    fn backward_is_additive(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let model = Gpt::new(cfg, &mut rng);
        let (b, t) = (1usize, cfg.seq_len);
        let mut acts = Activations::new(&cfg, b, t);
        let tokens: Vec<u32> = (0..t).map(|i| ((i * 3) % cfg.vocab_size) as u32).collect();
        let targets: Vec<u32> = (0..t).map(|i| ((i * 3 + 1) % cfg.vocab_size) as u32).collect();
        let mut g1 = model.grad_buffer();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut g1);
        let mut g2 = g1.clone();
        model.forward(&tokens, Some(&targets), &mut acts);
        model.backward(&tokens, &targets, &mut acts, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            prop_assert!((2.0 * a - b).abs() < 1e-4 + 1e-3 * a.abs());
        }
    }

    /// Probabilities from the loss head are a valid distribution per row.
    #[test]
    fn probabilities_are_normalized(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let model = Gpt::new(cfg, &mut rng);
        let t = cfg.seq_len;
        let mut acts = Activations::new(&cfg, 1, t);
        let tokens: Vec<u32> = (0..t).map(|i| (i % cfg.vocab_size) as u32).collect();
        let targets = tokens.clone();
        model.forward(&tokens, Some(&targets), &mut acts);
        for row in acts.probs().chunks(cfg.vocab_size) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sums to {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    /// Parameter round trip through `into_params`/`from_params` preserves
    /// behaviour exactly.
    #[test]
    fn param_roundtrip_preserves_logits(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let model = Gpt::new(cfg, &mut rng);
        let t = cfg.seq_len;
        let mut acts = Activations::new(&cfg, 1, t);
        let tokens: Vec<u32> = (0..t).map(|i| (i % cfg.vocab_size) as u32).collect();
        model.forward(&tokens, None, &mut acts);
        let want = acts.logits().to_vec();
        let rebuilt = Gpt::from_params(cfg, model.params().to_vec());
        rebuilt.forward(&tokens, None, &mut acts);
        prop_assert_eq!(acts.logits(), &want[..]);
    }

    /// The tiled attention kernels against the textbook loops, at any shape
    /// and thread budget, within 1e-5 (the GEMM tiles sum per block in FMA
    /// chains and the softmax uses a polynomial exp).
    #[test]
    fn attention_matches_textbook_loops(
        shape in (1usize..4, 1usize..40, 1usize..4, 1usize..26),
        alibi in any::<bool>(),
        chunks in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (b, t, nh, hs) = shape;
        let c = nh * hs;
        let mut rng = SeedStream::new(seed);
        let inp: Vec<f32> = (0..b * t * 3 * c).map(|_| rng.next_normal() * 0.5).collect();
        let dout: Vec<f32> = (0..b * t * c).map(|_| rng.next_normal() * 0.5).collect();
        let want = naive_attention(&inp, &dout, shape, alibi);
        let got = run_attention(chunks, &inp, &dout, shape, alibi, 0.0);
        for (name, (w, g)) in ["out", "preatt", "att", "dinp"].into_iter().zip(want.iter().zip(&got)) {
            for (i, (x, y)) in w.iter().zip(g).enumerate() {
                let close = (x - y).abs() <= 1e-5 * 1.0f32.max(x.abs()).max(y.abs());
                prop_assert!(close, "{}[{}] at {:?}: {} vs {}", name, i, shape, x, y);
            }
        }
        // The gradient scratch is overwritten whole, zeros above the diagonal.
        for scratch in [&got[4], &got[5]] {
            for (i, v) in scratch.iter().enumerate() {
                let (ti, t2) = (i / t % t, i % t);
                prop_assert!(v.is_finite() && (t2 <= ti || *v == 0.0));
            }
        }
    }
}

/// Every buffer both attention kernels write, at one shape and chunk count:
/// `[out, preatt, att, dinp, dpreatt, datt]`. The scratch blocks and `dinp`
/// start as `dinp_fill` / NaN: the kernels must overwrite all of them.
fn run_attention(
    chunks: usize,
    inp: &[f32],
    dout: &[f32],
    (b, t, nh, hs): (usize, usize, usize, usize),
    alibi: bool,
    dinp_fill: f32,
) -> [Vec<f32>; 6] {
    let (c, n) = (nh * hs, b * nh * t * t);
    let (mut out, mut preatt, mut att) = (
        vec![f32::NAN; b * t * c],
        vec![f32::NAN; n],
        vec![f32::NAN; n],
    );
    let (mut dinp, mut dpreatt, mut datt) = (
        vec![dinp_fill; inp.len()],
        vec![f32::NAN; n],
        vec![f32::NAN; n],
    );
    photon_tensor::ops::pool::with_parallelism(chunks, || {
        kernels::attention_forward(&mut out, &mut preatt, &mut att, inp, b, t, c, nh, alibi);
        kernels::attention_backward(
            &mut dinp,
            &mut dpreatt,
            &mut datt,
            dout,
            inp,
            &att,
            b,
            t,
            c,
            nh,
        );
    });
    [out, preatt, att, dinp, dpreatt, datt]
}

/// Attention at the edges of its blocking: sequence lengths on both sides of
/// the causal row block (16) and the register-tile height, head sizes below,
/// at and above one tile panel, several units per task.
#[test]
fn attention_holds_at_block_and_tile_edges() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut seed = 500;
    for t in [1usize, 5, 16, 33, 64, 65] {
        for hs in [4usize, 16, 24] {
            for alibi in [true, false] {
                seed += 1;
                let shape @ (b, _, nh, _) = (2usize, t, 3usize, hs);
                let c = nh * hs;
                let mut rng = SeedStream::new(seed);
                let inp: Vec<f32> = (0..b * t * 3 * c)
                    .map(|_| rng.next_normal() * 0.5)
                    .collect();
                let dout: Vec<f32> = (0..b * t * c).map(|_| rng.next_normal() * 0.5).collect();
                let want = naive_attention(&inp, &dout, shape, alibi);
                let tag = format!("t{t} hs{hs} alibi={alibi}");
                let got = run_attention(1, &inp, &dout, shape, alibi, 0.0);
                for (name, (w, g)) in ["out", "preatt", "att", "dinp"]
                    .into_iter()
                    .zip(want.iter().zip(&got))
                {
                    for (i, (x, y)) in w.iter().zip(g).enumerate() {
                        let close = (x - y).abs() <= 1e-5 * 1.0f32.max(x.abs()).max(y.abs());
                        assert!(close, "{name}[{i}] at {tag}: {x} vs {y}");
                    }
                }
                // All four (T, T) blocks: exact zeros above the diagonal.
                for (name, block) in ["preatt", "att", "dpreatt", "datt"]
                    .into_iter()
                    .zip([&got[1], &got[2], &got[4], &got[5]])
                {
                    for (i, v) in block.iter().enumerate() {
                        let (ti, t2) = (i / t % t, i % t);
                        assert!(v.is_finite(), "{name}[{i}] at {tag}");
                        assert!(t2 <= ti || v.to_bits() == 0, "{name}[{i}] = {v} at {tag}");
                    }
                }
                // Several units per task: the chunk count never shows.
                for chunks in [2, 4] {
                    let again = run_attention(chunks, &inp, &dout, shape, alibi, 0.0);
                    assert!(
                        again.iter().zip(&got).all(|(x, y)| bits(x) == bits(y)),
                        "{chunks} chunks at {tag}"
                    );
                }
                // `attention_backward` stores `dinp`: what it held is gone.
                let over_nan = run_attention(1, &inp, &dout, shape, alibi, f32::NAN);
                assert_eq!(bits(&over_nan[3]), bits(&got[3]), "dinp over NaN at {tag}");
                // A key/value row in a *later* row block is never read
                // for an earlier query row, not even times zero.
                let mut future = inp.clone();
                let boundary = t.min(16);
                for bi in 0..b {
                    for row in future[bi * t * 3 * c..(bi + 1) * t * 3 * c]
                        .chunks_exact_mut(3 * c)
                        .skip(boundary)
                    {
                        row[c..].fill(f32::NAN);
                    }
                }
                let poisoned = run_attention(1, &future, &dout, shape, alibi, 0.0);
                for bi in 0..b {
                    let early = bi * t * c..(bi * t + boundary) * c;
                    assert_eq!(
                        bits(&poisoned[0][early.clone()]),
                        bits(&got[0][early]),
                        "rows before the first block edge at {tag}"
                    );
                }
            }
        }
    }
}
