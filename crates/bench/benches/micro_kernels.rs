//! Criterion micro-benchmarks for the compute substrate: GEMM, attention,
//! and a full training step of the tiny proxy model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use photon_data::Batch;
use photon_nn::{kernels, Activations, Gpt, ModelConfig};
use photon_tensor::backend::{set_backend, simd_available, BackendKind};
use photon_tensor::{ops, SeedStream};
use std::hint::black_box;
use std::time::Duration;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let mut rng = SeedStream::new(1);
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (256, 256, 256)] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_normal()).collect();
        let mut out = vec![0.0f32; m * n];
        group.throughput(Throughput::Flops((2 * m * k * n) as u64));
        // Per-backend entries: `-scalar` pins the reference path, `-simd`
        // the vectorized one (only when the host supports it); unsuffixed
        // names run whatever dispatch resolved, matching production.
        let mut backends = vec![(Some(BackendKind::Scalar), "-scalar"), (None, "")];
        if simd_available() {
            backends.insert(1, (Some(BackendKind::Simd), "-simd"));
        }
        for (kind, suffix) in backends {
            if let Some(kind) = kind {
                set_backend(kind);
            }
            group.bench_function(format!("{m}x{k}x{n}{suffix}"), |bch| {
                bch.iter(|| {
                    ops::gemm(
                        ops::Gemm::new(m, k, n),
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                    )
                });
            });
            group.bench_function(format!("{m}x{k}x{n}{suffix}-par4"), |bch| {
                bch.iter(|| {
                    ops::par_gemm(
                        ops::Gemm::new(m, k, n),
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                        4,
                    )
                });
            });
            // Transposed variants as the training kernels use them: trans_b
            // is the matmul forward layout, trans_a is the dweight (split-k)
            // path.
            for (tag, spec) in [
                ("ta", ops::Gemm::new(m, k, n).transpose_a()),
                ("tb", ops::Gemm::new(m, k, n).transpose_b()),
            ] {
                group.bench_function(format!("{m}x{k}x{n}{suffix}-{tag}"), |bch| {
                    bch.iter(|| ops::gemm(spec, black_box(&a), black_box(&b), &mut out));
                });
                group.bench_function(format!("{m}x{k}x{n}{suffix}-{tag}-par4"), |bch| {
                    bch.iter(|| ops::par_gemm(spec, black_box(&a), black_box(&b), &mut out, 4));
                });
            }
        }
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let (b, t, ch, nh) = (4usize, 64usize, 64usize, 4usize);
    let mut rng = SeedStream::new(2);
    let inp: Vec<f32> = (0..b * t * 3 * ch)
        .map(|_| rng.next_normal() * 0.1)
        .collect();
    let mut out = vec![0.0f32; b * t * ch];
    let mut preatt = vec![0.0f32; b * nh * t * t];
    let mut att = vec![0.0f32; b * nh * t * t];
    group.bench_function("forward_b4_t64_c64", |bch| {
        bch.iter(|| {
            ops::pool::with_parallelism(1, || {
                kernels::attention_forward(
                    &mut out,
                    &mut preatt,
                    &mut att,
                    black_box(&inp),
                    b,
                    t,
                    ch,
                    nh,
                    true,
                )
            })
        });
    });
    group.bench_function("forward_b4_t64_c64-par4", |bch| {
        bch.iter(|| {
            ops::pool::with_parallelism(4, || {
                kernels::attention_forward(
                    &mut out,
                    &mut preatt,
                    &mut att,
                    black_box(&inp),
                    b,
                    t,
                    ch,
                    nh,
                    true,
                )
            })
        });
    });
    kernels::attention_forward(&mut out, &mut preatt, &mut att, &inp, b, t, ch, nh, true);
    let dout: Vec<f32> = (0..b * t * ch).map(|_| rng.next_normal() * 0.1).collect();
    let mut dinp = vec![0.0f32; inp.len()];
    let mut dpre = vec![0.0f32; preatt.len()];
    let mut datt = vec![0.0f32; att.len()];
    group.bench_function("backward_b4_t64_c64", |bch| {
        bch.iter(|| {
            ops::pool::with_parallelism(1, || {
                kernels::attention_backward(
                    &mut dinp,
                    &mut dpre,
                    &mut datt,
                    black_box(&dout),
                    &inp,
                    &att,
                    b,
                    t,
                    ch,
                    nh,
                )
            })
        });
    });
    group.bench_function("backward_b4_t64_c64-par4", |bch| {
        bch.iter(|| {
            ops::pool::with_parallelism(4, || {
                kernels::attention_backward(
                    &mut dinp,
                    &mut dpre,
                    &mut datt,
                    black_box(&dout),
                    &inp,
                    &att,
                    b,
                    t,
                    ch,
                    nh,
                )
            })
        });
    });
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for (name, cfg) in [
        ("proxy_tiny", ModelConfig::proxy_tiny()),
        ("proxy_small", ModelConfig::proxy_small()),
    ] {
        let mut rng = SeedStream::new(3);
        let model = Gpt::new(cfg, &mut rng);
        let mut acts = Activations::new(&cfg, 8, cfg.seq_len);
        let mut grads = model.grad_buffer();
        let mut batch = Batch::zeros(8, cfg.seq_len);
        for (i, x) in batch.inputs.iter_mut().enumerate() {
            *x = (i % cfg.vocab_size) as u32;
        }
        for (i, y) in batch.targets.iter_mut().enumerate() {
            *y = ((i + 1) % cfg.vocab_size) as u32;
        }
        group.bench_function(format!("{name}_fwd_bwd_b8"), |bch| {
            bch.iter_batched(
                || (),
                |()| {
                    grads.iter_mut().for_each(|g| *g = 0.0);
                    model.forward(&batch.inputs, Some(&batch.targets), &mut acts);
                    model.backward(&batch.inputs, &batch.targets, &mut acts, &mut grads);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_attention, bench_train_step);
criterion_main!(benches);
