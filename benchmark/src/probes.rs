//! Isolated per-layer probes: each crate's public functions timed alone on
//! the machine, at the shapes the workload uses. Run only in the traced
//! pass, after the sessions; every probe sits inside a bench-side span.

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{Kind, Workload, TREE_MAX_RESIDENT};
use photon_comms::{
    compress_f32s, crc32, decompress_f32s, deliver, ChannelLink, Link, Message, RetransmitPolicy,
    Topology, TrainMetrics, WallTimeModel,
};
use photon_core::{
    load_checkpoint, save_checkpoint, FederationConfig, HierarchyConfig, MembershipConfig,
    MembershipRegistry, ShardTree,
};
use photon_data::{partition_iid, Batch, DomainKind, SyntheticDomain, TokenCorpus};
use photon_fedopt::{
    aggregate_deltas, trimmed_mean_aggregate, ClientSampler, ClientUpdate, GuardConfig,
    ServerOptKind, StreamingMerge, UniformSampler, UpdateGuard,
};
use photon_net::{frame_io, TcpLink};
use photon_nn::{kernels, Activations, Gpt, ModelConfig};
use photon_optim::{clip_global_norm, AdamW, Optimizer};
use photon_tensor::ops::{gemm, gemm_auto, pool, Gemm};
use photon_tensor::{uniform_fill, SeedStream};
use photon_tokenizer::ByteTokenizer;
use photon_trace::{ClockMode, Phase, TraceConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time spent sampling one probe.
const BUDGET: Duration = Duration::from_millis(80);

/// Seconds per call of `f`, one sample per batch; batches are sized from
/// the first (warming) call so a nanosecond-scale body is not drowned by
/// the clock reads.
fn samples(mut f: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((100e-6 / first) as usize).clamp(1, 100_000);
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < 5 || (start.elapsed() < BUDGET && out.len() < 2_000) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        out.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    out
}

/// Median seconds per call.
fn time(f: impl FnMut()) -> f64 {
    median(&samples(f))
}

/// Median seconds per call of `f` on a fresh `setup()` value each time
/// (for calls that consume or mutate their input); set-up is not timed.
fn time_with<T>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < 5 || (start.elapsed() < BUDGET && out.len() < 2_000) {
        let input = setup();
        let t = Instant::now();
        f(input);
        out.push(t.elapsed().as_secs_f64());
    }
    median(&out)
}

/// Keeps a probe's result alive past the optimiser.
fn sink<T>(value: T) {
    black_box(value);
}

fn random(n: usize, rng: &mut SeedStream) -> Vec<f32> {
    let mut v = vec![0.0; n];
    uniform_fill(&mut v, -1.0, 1.0, rng);
    v
}

/// What the sessions of the traced pass measured, for the derived rows.
#[derive(Debug, Clone, Copy)]
pub struct SessionFacts {
    /// Untraced `round_ms_p50`.
    pub round_ms_p50: f64,
    /// Untraced `tokens_per_s`.
    pub tokens_per_s: f64,
}

/// Runs every probe for `w` and returns the measured rows.
///
/// # Errors
/// A message when a probe's fixture cannot be built (the workload's own
/// configuration is rejected, a socket cannot be opened, ...).
pub fn run(
    w: &Workload,
    seed: u64,
    facts: SessionFacts,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut p = Probes {
        w,
        cfg: w.config(seed),
        model: (w.model)(),
        rng: SeedStream::new(seed).split("probes"),
        rows: BTreeMap::new(),
    };
    let outer = spans.enter("probes");
    spanned(spans, "probe:tensor", || p.tensor());
    let step_s = spanned(spans, "probe:nn", || p.nn());
    spanned(spans, "probe:optim", || p.optim());
    let delta = spanned(spans, "probe:core", || p.core(seed, facts, step_s, scratch))?;
    spanned(spans, "probe:data", || p.data(seed, step_s))?;
    spanned(spans, "probe:fedopt", || p.fedopt(&delta, seed));
    spanned(spans, "probe:net", || p.net(&delta))?;
    spanned(spans, "probe:comms", || p.comms(&delta, seed, facts))?;
    spanned(spans, "probe:trace", || p.trace())?;
    spans.exit(outer);
    Ok(p.rows)
}

/// Runs `f` inside a bench-side span.
fn spanned<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> T {
    let id = spans.enter(name);
    let out = f();
    spans.exit(id);
    out
}

struct Probes<'a> {
    w: &'a Workload,
    cfg: FederationConfig,
    model: ModelConfig,
    rng: SeedStream,
    rows: BTreeMap<&'static str, f64>,
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.rows.insert(name, value);
    }

    /// photon-tensor: the GEMM roofline, the three layouts at the
    /// workload's MLP shape, pool speed-up and the bare dispatch cost.
    fn tensor(&mut self) {
        let mut peak: f64 = 0.0;
        for n in [64usize, 128, 256] {
            let (a, b) = (random(n * n, &mut self.rng), random(n * n, &mut self.rng));
            let mut c = vec![0.0; n * n];
            let best = samples(|| gemm(Gemm::new(n, n, n), &a, &b, black_box(&mut c)))
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            peak = peak.max(2.0 * (n * n * n) as f64 / best / 1e9);
            if n == 256 {
                let serial = time(|| gemm(Gemm::new(n, n, n), &a, &b, black_box(&mut c)));
                let pooled = time(|| gemm_auto(Gemm::new(n, n, n), &a, &b, black_box(&mut c)));
                self.put("tensor.gemm_pool_speedup", serial / pooled);
            }
        }
        self.put("tensor.gemm_peak_gflops", peak);

        let (m, k, n) = (
            self.w.batch * self.model.seq_len,
            self.model.d_model,
            self.model.mlp_dim(),
        );
        let (a, b) = (random(m * k, &mut self.rng), random(k * n, &mut self.rng));
        let mut c = vec![0.0; m * n];
        let gflops = |t: f64| 2.0 * (m * k * n) as f64 / t / 1e9;
        let layouts = [
            ("tensor.gemm_nn_gflops", Gemm::new(m, k, n)),
            ("tensor.gemm_ta_gflops", Gemm::new(m, k, n).transpose_a()),
            ("tensor.gemm_tb_gflops", Gemm::new(m, k, n).transpose_b()),
        ];
        for (name, spec) in layouts {
            let t = time(|| gemm_auto(spec, &a, &b, black_box(&mut c)));
            self.put(name, gflops(t));
        }

        let parts = pool::effective_parallelism();
        let t = time(|| pool::parallel_for(2 * parts, 1, sink));
        self.put("tensor.pool_dispatch_us", t * 1e6);
    }

    /// photon-nn: forward, backward, attention alone, and the whole train
    /// step on one thread. Returns the single-thread step time.
    fn nn(&mut self) -> f64 {
        let (b, t) = (self.w.batch, self.model.seq_len);
        let (c, nh) = (self.model.d_model, self.model.n_heads);
        let mut model = Gpt::with_positions(self.model, self.cfg.positions, &mut self.rng);
        let mut acts = Activations::new(&self.model, b, t);
        let mut grads = model.grad_buffer();
        let tokens: Vec<u32> = (0..b * t)
            .map(|_| self.rng.next_below(self.model.vocab_size) as u32)
            .collect();
        let targets: Vec<u32> = tokens.iter().rev().copied().collect();

        let fwd = time(|| sink(model.forward(&tokens, Some(&targets), &mut acts)));
        self.put("nn.fwd_ms", fwd * 1e3);
        let bwd = time(|| model.backward(&tokens, &targets, &mut acts, black_box(&mut grads)));
        self.put("nn.bwd_ms", bwd * 1e3);

        let qkv = random(b * t * 3 * c, &mut self.rng);
        let att_len = b * nh * t * t;
        let (mut out, mut preatt, mut att) =
            (vec![0.0; b * t * c], vec![0.0; att_len], vec![0.0; att_len]);
        let fwd = time(|| {
            kernels::attention_forward(
                black_box(&mut out),
                &mut preatt,
                &mut att,
                &qkv,
                b,
                t,
                c,
                nh,
                true,
            )
        });
        let flops = 2.0 * (b * t * t * c) as f64;
        self.put("nn.attention_fwd_gflops", flops / fwd / 1e9);
        let dout = random(b * t * c, &mut self.rng);
        let (mut dqkv, mut dpreatt, mut datt) =
            (vec![0.0; qkv.len()], vec![0.0; att_len], vec![0.0; att_len]);
        let bwd = time(|| {
            kernels::attention_backward(
                black_box(&mut dqkv),
                &mut dpreatt,
                &mut datt,
                &dout,
                &qkv,
                &att,
                b,
                t,
                c,
                nh,
            )
        });
        self.put("nn.attention_bwd_gflops", 2.0 * flops / bwd / 1e9);

        // The client's local step (ddp_train with one worker), one thread.
        let mut opt = AdamW::new(self.cfg.adamw, model.param_count());
        let lr = self.cfg.schedule.lr_at(0);
        let clip = self.cfg.grad_clip;
        let step = pool::with_parallelism(1, || {
            time(|| {
                grads.iter_mut().for_each(|g| *g = 0.0);
                black_box(model.forward(&tokens, Some(&targets), &mut acts));
                model.backward(&tokens, &targets, &mut acts, &mut grads);
                if let Some(max_norm) = clip {
                    clip_global_norm(&mut grads, max_norm);
                }
                opt.step(model.params_mut(), &grads, lr);
            })
        });
        let tokens_per_s = (b * t) as f64 / step;
        self.put("nn.step_tokens_per_s", tokens_per_s);
        let peak = self.rows["tensor.gemm_peak_gflops"] * 1e9;
        self.put(
            "nn.mfu_frac",
            tokens_per_s * self.model.flops_per_token() / peak,
        );
        step
    }

    /// photon-optim at the workload's parameter count.
    fn optim(&mut self) {
        let n = self.model.param_count();
        let mut params = random(n, &mut self.rng);
        let mut grads = random(n, &mut self.rng);
        let mut opt = AdamW::new(self.cfg.adamw, n);
        let t = time(|| opt.step(black_box(&mut params), &grads, 1e-3));
        self.put("optim.adamw_step_ms", t * 1e3);
        let t = time(|| sink(clip_global_norm(&mut grads, 1.0)));
        self.put("optim.clip_ms", t * 1e3);
    }

    /// photon-core: one client's round alone, the derived overhead and
    /// efficiency rows, registry and shard-tree calls, checkpoint I/O.
    /// Returns a real post-training delta for the comms/fedopt probes.
    fn core(
        &mut self,
        seed: u64,
        facts: SessionFacts,
        step_s: f64,
        scratch: &Path,
    ) -> Result<Vec<f32>, String> {
        let mut fed = self.w.build(seed)?;
        let global = fed.aggregator.params().to_vec();
        let cohort: Vec<u32> = (0..self.w.cohort as u32).collect();
        let mut delta = Vec::new();
        let mut round = 0;
        let client_s = {
            let (cfg, client) = (&self.cfg, &mut fed.clients[0]);
            let mut failure = None;
            let t = time(|| {
                match client.run_round(&global, round, &cohort, cfg) {
                    Ok(outcome) => delta = outcome.delta,
                    Err(e) => failure = Some(e.to_string()),
                }
                round += 1;
            });
            if let Some(e) = failure {
                return Err(format!("client round: {e}"));
            }
            t
        };
        drop(fed);
        self.put("core.client_round_ms", client_s * 1e3);
        self.put(
            "core.round_overhead_ms",
            facts.round_ms_p50 - client_s * 1e3,
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = self.w.cohort.min(cores) as f64;
        let step_tps = (self.w.batch * self.model.seq_len) as f64 / step_s;
        self.put(
            "core.parallel_efficiency",
            facts.tokens_per_s / (lanes * step_tps),
        );

        if self.w.kind == Kind::TreeSim {
            let mut registry =
                MembershipRegistry::new(MembershipConfig::default(), self.w.population);
            let mut r = 0;
            let t = time(|| {
                black_box(registry.begin_round(r, None));
                r += 1;
            });
            self.put("core.membership_begin_round_us", t * 1e6);
            let hierarchy: HierarchyConfig = self.cfg.hierarchy.expect("tree_100k has a hierarchy");
            let tree = ShardTree::new(hierarchy, seed);
            let ids: Vec<u32> = SeedStream::new(seed)
                .sample_indices(self.w.population, self.w.cohort)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            let t = time(|| sink(tree.partition(&ids)));
            self.put("core.shard_partition_us", t * 1e6);
        }

        let dir = scratch.join(format!("ckpt-probe-{}", std::process::id()));
        let saved =
            time(|| save_checkpoint(&dir, &self.cfg, 1, &global).expect("checkpoint saves"));
        let loaded = time(|| sink(load_checkpoint(&dir).expect("checkpoint loads")));
        let _ = std::fs::remove_dir_all(&dir);
        self.put("core.checkpoint_save_ms", saved * 1e3);
        self.put("core.checkpoint_load_ms", loaded * 1e3);
        Ok(delta)
    }

    /// photon-data: the client's batch stream, and the corpus build that
    /// sits inside `setup_s` on the IID workloads.
    fn data(&mut self, seed: u64, step_s: f64) -> Result<(), String> {
        let fed = self.w.build(seed)?;
        let mut stream = fed.clients[0]
            .data_source()
            .bind_stream(self.rng.split("stream"));
        let mut batch = Batch::zeros(self.w.batch, self.model.seq_len);
        let t = time(|| stream.next_batch(black_box(&mut batch)));
        self.put("data.next_batch_us", t * 1e6);
        self.put("data.wait_frac", t / step_s);
        if self.w.kind != Kind::TreeSim {
            // The data half of `build_iid_federation`.
            let tokens = self.w.tokens_per_client * self.w.population
                + (self.w.tokens_per_client / 2).max(2048);
            let block = (self.model.seq_len + 1).max(32);
            let t = time(|| {
                let mut rng = SeedStream::new(seed).split("data");
                let domain = SyntheticDomain::preset(DomainKind::Web, &mut rng);
                let corpus =
                    TokenCorpus::from_domain(&domain, &ByteTokenizer::new(), tokens, &mut rng);
                black_box(partition_iid(&corpus, self.w.population, block, &mut rng));
            });
            self.put("data.build_corpus_s", t);
        }
        Ok(())
    }

    /// A cohort of updates around the real delta.
    fn updates(&self, delta: &[f32], n: usize) -> Vec<ClientUpdate> {
        (0..n)
            .map(|i| {
                let scale = 1.0 + 0.01 * i as f32;
                ClientUpdate::new(delta.iter().map(|d| d * scale).collect(), 1.0)
                    .expect("a finite delta makes a valid update")
            })
            .collect()
    }

    /// photon-fedopt at cohort x parameter count.
    fn fedopt(&mut self, delta: &[f32], seed: u64) {
        let updates = self.updates(delta, self.w.cohort);
        let bytes = (updates.len() * delta.len() * 4) as f64;
        let t = time(|| sink(aggregate_deltas(&updates)));
        self.put("fedopt.merge_mean_ms", t * 1e3);
        self.put("fedopt.merge_mean_gbps", bytes / t / 1e9);
        let t = time(|| sink(trimmed_mean_aggregate(&updates, 0.2)));
        self.put("fedopt.merge_trimmed_ms", t * 1e3);

        let ids: Vec<u32> = (0..updates.len() as u32).collect();
        let mut guard = UpdateGuard::new(GuardConfig::on(), seed);
        let mut round = 0;
        let t = time_with(
            || updates.clone(),
            |mut batch| {
                black_box(guard.screen_round(round, &ids, &mut batch));
                round += 1;
            },
        );
        self.put("fedopt.guard_screen_ms", t * 1e3);

        // 32 updates arriving out of canonical order: odd ids first.
        let stream = self.updates(delta, 32);
        let keys: Vec<(u64, u32)> = (0..32).map(|i| (0, i)).collect();
        let order: Vec<usize> = (1..32).step_by(2).chain((0..32).step_by(2)).collect();
        let mut peak = 0;
        let t = time_with(
            || stream.clone(),
            |batch| {
                let mut merge = StreamingMerge::new(keys.clone(), TREE_MAX_RESIDENT);
                let mut batch: Vec<Option<ClientUpdate>> = batch.into_iter().map(Some).collect();
                for &i in &order {
                    merge.push(
                        keys[i],
                        batch[i].take().expect("each update is pushed once"),
                    );
                }
                peak = merge.peak_resident();
                black_box(merge.finish());
            },
        );
        self.put("fedopt.streaming_merge_ms", t * 1e3);
        self.put("fedopt.streaming_peak_resident", peak as f64);

        let mut opt = ServerOptKind::photon_default().build(delta.len());
        let mut global = random(delta.len(), &mut self.rng);
        let mut round = 0;
        let t = time(|| {
            opt.apply(black_box(&mut global), delta, round);
            round += 1;
        });
        self.put("fedopt.server_opt_ms", t * 1e3);

        let mut sampler = UniformSampler::new(256, SeedStream::new(seed));
        let mut round = 0;
        let t = time(|| {
            black_box(sampler.sample(100_000, round));
            round += 1;
        });
        self.put("fedopt.sample_us", t * 1e6);
    }

    /// photon-net on the tcp workload: one model-sized frame over loopback,
    /// `TcpLink` on the sending side and bare `frame_io` on the echo side.
    fn net(&mut self, delta: &[f32]) -> Result<(), String> {
        if self.w.kind != Kind::Tcp {
            return Ok(());
        }
        let wire = self.cfg.wire_opts();
        let frame = result_message(delta).to_frame_opts(wire);
        let ack = Message::Heartbeat {
            client_id: 0,
            seq: 0,
        }
        .to_frame_opts(wire);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let echo = std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                while frame_io::read_frame(&mut stream).is_ok() {
                    if frame_io::write_frame(&mut stream, &ack).is_err() {
                        break;
                    }
                }
            }
        });
        let link = TcpLink::connect(&addr).map_err(|e| e.to_string())?;
        let mut failure = None;
        let rtt = time(|| {
            let sent = link.send_frame(frame.clone());
            let got = link.recv_frame(Duration::from_secs(5));
            if let Some(e) = sent.err().or(got.err()) {
                failure = Some(e.to_string());
            }
        });
        link.sever();
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())?;
        if let Some(e) = failure {
            return Err(format!("loopback frame: {e}"));
        }
        self.put("net.tcp_frame_rtt_ms", rtt * 1e3);
        self.put("net.tcp_mbps", frame.len() as f64 / rtt / 1e6);
        Ok(())
    }

    /// photon-comms: the frame codec, CRC and compression on the real
    /// delta, an in-memory delivery, and the Appendix B.1 model.
    fn comms(&mut self, delta: &[f32], seed: u64, facts: SessionFacts) -> Result<(), String> {
        let wire = self.cfg.wire_opts();
        let raw_mb = (delta.len() * 4) as f64 / 1e6;
        let result = result_message(delta);
        let frame = result.to_frame_opts(wire);
        let broadcast = Message::ModelBroadcast {
            round: 1,
            params: delta.to_vec(),
        }
        .to_frame_opts(wire);
        self.put("comms.frame_bytes_result", frame.len() as f64);
        self.put("comms.frame_bytes_broadcast", broadcast.len() as f64);

        let t = time(|| sink(result.to_frame_opts(wire)));
        self.put("comms.encode_mbps", raw_mb / t);
        let t = time(|| sink(Message::from_frame(frame.clone())));
        self.put("comms.decode_mbps", raw_mb / t);
        let t = time(|| sink(crc32(&frame)));
        self.put("comms.crc32_mbps", frame.len() as f64 / 1e6 / t);

        let packed = compress_f32s(delta);
        let t = time(|| sink(compress_f32s(delta)));
        self.put("comms.compress_mbps", raw_mb / t);
        let t = time(|| sink(decompress_f32s(packed.clone())));
        self.put("comms.decompress_mbps", raw_mb / t);
        self.put(
            "comms.compress_ratio",
            (delta.len() * 4) as f64 / packed.len() as f64,
        );

        let (tx, rx) = ChannelLink::pair();
        let policy = RetransmitPolicy::default();
        let mut failure = None;
        let deliver_s = time(|| {
            let moved = tx
                .send_frame(frame.clone())
                .and_then(|()| rx.recv_frame(Duration::from_secs(5)));
            match moved {
                Ok(received) => sink(deliver(&received, 0, seed, &policy)),
                Err(e) => failure = Some(e.to_string()),
            }
        });
        if let Some(e) = failure {
            return Err(format!("channel link: {e}"));
        }
        self.put("comms.channel_deliver_ms", deliver_s * 1e3);

        // Appendix B.1, parameter-server topology: nu is one client alone,
        // the payload is what one client moves per round (model down,
        // update up), bandwidth is the measured link this workload uses.
        let nu = self.w.tau as f64 / (self.rows["core.client_round_ms"] / 1e3);
        let model_mb = (frame.len() + broadcast.len()) as f64 / 1e6;
        let bandwidth = match self.rows.get("net.tcp_mbps") {
            Some(&mbps) => mbps,
            None => frame.len() as f64 / 1e6 / deliver_s,
        };
        let model = WallTimeModel::new(
            nu,
            self.w.tau,
            model_mb,
            bandwidth,
            Topology::ParameterServer,
        );
        let predicted_ms = model.round_time(self.w.cohort).total() * 1e3;
        self.put("comms.walltime_model_round_ms", predicted_ms);
        self.put(
            "comms.walltime_residual_frac",
            (facts.round_ms_p50 - predicted_ms) / facts.round_ms_p50,
        );
        Ok(())
    }

    /// photon-trace: what one span costs with the recorder off and on.
    fn trace(&mut self) -> Result<(), String> {
        if photon_trace::enabled() {
            return Err("the recorder must be off when the probes start".into());
        }
        let t = time(|| sink(photon_trace::span(Phase::LocalStep)));
        self.put("trace.span_disabled_ns", t * 1e9);
        enable_recorder()?;
        let t = time(|| sink(photon_trace::span(Phase::LocalStep)));
        photon_trace::reset_for_tests();
        self.put("trace.span_enabled_ns", t * 1e9);
        Ok(())
    }
}

fn result_message(delta: &[f32]) -> Message {
    Message::ClientResult {
        round: 1,
        client_id: 0,
        delta: delta.to_vec(),
        weight: 1.0,
        metrics: TrainMetrics::default(),
    }
}

/// Switches the program's own recorder on, in memory only: no sink files,
/// no kernel events in the stream, wall-clock timestamps.
///
/// # Errors
/// The recorder's initialisation error.
pub fn enable_recorder() -> Result<(), String> {
    photon_trace::init(TraceConfig {
        jsonl: None,
        prometheus: None,
        kernel_events: false,
        clock: ClockMode::Monotonic,
    })
    .map_err(|e| format!("photon_trace::init: {e}"))
}
