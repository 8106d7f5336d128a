use crate::{DataSource, DdpConfig, FederationConfig};
use photon_cluster::{select_strategy, SiloSpec, TrainingStrategy};
use photon_comms::{mask_update, TrainMetrics};
use photon_optim::{clip_global_norm, AdamW};
use photon_tensor::ops::pool;
use photon_tensor::SeedStream;

/// The result of one client's local round (before Link framing).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Pseudo-gradient `θ_global − θ_local` (possibly post-processed).
    pub delta: Vec<f32>,
    /// Aggregation weight.
    pub weight: f64,
    /// Local training metrics.
    pub metrics: TrainMetrics,
}

/// A Photon LLM client (LLM-C, §3.1): owns a bound [`DataSource`], an
/// optional hardware silo description, and the local training pipeline of
/// Algorithm 1 (L.13–28), including strategy selection and the
/// sub-federation branch.
#[derive(Debug)]
pub struct LlmClient {
    id: u32,
    ds: DataSource,
    silo: Option<SiloSpec>,
    rng: SeedStream,
    /// Persistent local optimizer for the stateful mode
    /// (`stateless_local = false`); single-worker pipelines only.
    opt_state: Option<AdamW>,
    /// Rounds on which this client simulates a mid-round failure
    /// (disconnect before returning a result).
    fail_rounds: Vec<u64>,
    /// Rounds on which one sub-federation node thread panics mid-train —
    /// exercising the path that surfaces a node panic as a
    /// [`CoreError::ClientFailure`](crate::CoreError::ClientFailure)
    /// instead of aborting the whole client.
    panic_node_rounds: Vec<u64>,
}

impl LlmClient {
    /// Creates a client bound to a data source. Passing a silo enables
    /// hardware-aware strategy selection; `None` trains single-worker.
    pub fn new(id: u32, ds: DataSource, silo: Option<SiloSpec>, rng: SeedStream) -> Self {
        LlmClient {
            id,
            ds,
            silo,
            rng,
            opt_state: None,
            fail_rounds: Vec::new(),
            panic_node_rounds: Vec::new(),
        }
    }

    /// Schedules simulated mid-round failures (the client trains but drops
    /// the connection before returning a result) — used to exercise the
    /// aggregator's partial-update path (§4: the parameter server
    /// "handles worker dropouts well").
    pub fn fail_on_rounds(&mut self, rounds: Vec<u64>) {
        self.fail_rounds = rounds;
    }

    /// Whether this client is scheduled to fail on `round`.
    pub fn fails_on(&self, round: u64) -> bool {
        self.fail_rounds.contains(&round)
    }

    /// Schedules a deterministic panic inside one sub-federation node
    /// thread on the given rounds (only meaningful for clients whose
    /// strategy selects the sub-federation branch).
    pub fn panic_node_on_rounds(&mut self, rounds: Vec<u64>) {
        self.panic_node_rounds = rounds;
    }

    /// Client identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The bound data source.
    pub fn data_source(&self) -> &DataSource {
        &self.ds
    }

    /// The execution strategy this client's hardware selects for `cfg`'s
    /// model (Algorithm 1, L.15–16).
    pub fn strategy(&self, cfg: &FederationConfig) -> TrainingStrategy {
        match &self.silo {
            Some(silo) => select_strategy(&cfg.model, silo),
            None => TrainingStrategy::SingleGpu,
        }
    }

    /// Runs one local round from the broadcast `global` parameters,
    /// returning the post-processed pseudo-gradient. `cohort` lists all
    /// participating client ids this round (needed for secure-aggregation
    /// masking).
    ///
    /// # Errors
    /// Returns [`CoreError::ClientFailure`](crate::CoreError::ClientFailure)
    /// when a sub-federation node thread panics: the node's loss is
    /// contained to this client's round result, exactly like a client
    /// thread panic is contained to the aggregator's round.
    ///
    /// # Panics
    /// Panics if `global` has the wrong length for the configured model,
    /// or secure aggregation is enabled and this client is missing from
    /// the cohort.
    pub fn run_round(
        &mut self,
        global: &[f32],
        round: u64,
        cohort: &[u32],
        cfg: &FederationConfig,
    ) -> crate::Result<ClientOutcome> {
        let strategy = self.strategy(cfg);
        let workers = match strategy {
            TrainingStrategy::SubFederation { partitions } => partitions,
            other => other.parallel_workers(),
        }
        .clamp(1, 8);

        // All in-round randomness forks off a round-keyed stream (never
        // advancing the client's base stream), so a client rebuilt from
        // scratch after a crash replays any round bit-identically.
        let mut round_rng = self.rng.fork(&format!("round-{round}"));

        let (local_params, metrics) = if let TrainingStrategy::SubFederation { .. } = strategy {
            self.run_sub_federation(global, round, workers, cfg, &mut round_rng)?
        } else if workers == 1 && !cfg.stateless_local {
            self.run_single_stateful(global, round, cfg, &mut round_rng)
        } else {
            // Standard distributed training across the silo's GPUs
            // (Algorithm 1, L.16–18). Stateless: fresh optimizer per round.
            let ddp_cfg = self.ddp_config(round, cfg);
            let streams = if workers == 1 {
                vec![self.ds.bind_stream(round_rng.split("round-stream"))]
            } else {
                self.ds.partition_streams(workers, &mut round_rng)
            };
            let (params, report) = crate::ddp_train(global, &ddp_cfg, streams);
            (
                params,
                TrainMetrics {
                    mean_loss: report.mean_loss,
                    tokens: report.tokens,
                    steps: report.steps,
                },
            )
        };

        let mut delta = photon_fedopt::delta_from(global, &local_params);
        self.post_process(&mut delta, round, cohort, cfg, &mut round_rng);
        Ok(ClientOutcome {
            delta,
            weight: 1.0,
            metrics,
        })
    }

    fn ddp_config(&self, round: u64, cfg: &FederationConfig) -> DdpConfig {
        DdpConfig {
            model: cfg.model,
            per_worker_batch: cfg.local_batch,
            seq_len: cfg.model.seq_len,
            steps: cfg.local_steps,
            start_step: round * cfg.local_steps,
            adamw: cfg.adamw,
            schedule: cfg.schedule,
            grad_clip: cfg.grad_clip,
            fedprox_mu: cfg.fedprox_mu,
        }
    }

    /// Sub-federation branch (Algorithm 1, L.19–25): each node trains an
    /// independent replica on a stream partition; the client averages the
    /// node models into one update before returning it.
    fn run_sub_federation(
        &mut self,
        global: &[f32],
        round: u64,
        partitions: usize,
        cfg: &FederationConfig,
        rng: &mut SeedStream,
    ) -> crate::Result<(Vec<f32>, TrainMetrics)> {
        let ddp_cfg = self.ddp_config(round, cfg);
        let streams = self.ds.partition_streams(partitions, rng);
        // Concurrent nodes take equal shares of this client's compute
        // context, like DDP replicas.
        let ctx = pool::Context::current().split(partitions);
        let panic_scheduled = self.panic_node_rounds.contains(&round);
        let client_id = self.id;
        #[cfg(test)]
        crate::thread_census::note_spawned(streams.len());
        // Scoped threads: every node is joined before a failure surfaces,
        // so a panicking node never leaves siblings running into the next
        // round, and the nodes read `global` in place.
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(node, stream)| {
                    let (ddp_cfg, ctx) = (&ddp_cfg, &ctx);
                    scope.spawn(move || {
                        if panic_scheduled && node == 0 {
                            panic!("injected sub-federation node fault (client {client_id}, round {round})");
                        }
                        ctx.enter(|| crate::ddp_train(global, ddp_cfg, vec![stream]))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut results = Vec::with_capacity(joined.len());
        let mut failure: Option<String> = None;
        for (node, outcome) in joined.into_iter().enumerate() {
            match outcome {
                Ok(result) => results.push(result),
                Err(payload) => {
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    failure.get_or_insert(format!(
                        "sub-federation node {node} of client {client_id} \
                         panicked in round {round}: {reason}"
                    ));
                }
            }
        }
        if let Some(message) = failure {
            return Err(crate::CoreError::ClientFailure(message));
        }

        // L.24: θ_k = (1/|I|) Σ θ_i.
        let n = results.len();
        let mut avg = vec![0.0f32; global.len()];
        let mut loss = 0.0f32;
        let mut tokens = 0u64;
        for (params, report) in &results {
            photon_tensor::ops::axpy(1.0 / n as f32, params, &mut avg);
            loss += report.mean_loss / n as f32;
            tokens += report.tokens;
        }
        Ok((
            avg,
            TrainMetrics {
                mean_loss: loss,
                tokens,
                steps: cfg.local_steps,
            },
        ))
    }

    /// Single-worker path with a persistent local optimizer (used when
    /// `stateless_local = false`; the paper keeps momenta local rather
    /// than communicating them, Appendix C.1).
    fn run_single_stateful(
        &mut self,
        global: &[f32],
        round: u64,
        cfg: &FederationConfig,
        rng: &mut SeedStream,
    ) -> (Vec<f32>, TrainMetrics) {
        let ddp_cfg = self.ddp_config(round, cfg);
        let stream = self.ds.bind_stream(rng.split("round-stream"));
        let opt = self
            .opt_state
            .get_or_insert_with(|| AdamW::new(cfg.adamw, global.len()));
        let (params, mean_loss) = crate::ddp::train_replica(global, &ddp_cfg, opt, stream, None);
        (
            params,
            TrainMetrics {
                mean_loss,
                tokens: cfg.local_steps * (cfg.local_batch * cfg.model.seq_len) as u64,
                steps: cfg.local_steps,
            },
        )
    }

    /// Algorithm 1, L.28: `PostProcess` — clip, add DP noise, mask.
    fn post_process(
        &mut self,
        delta: &mut [f32],
        round: u64,
        cohort: &[u32],
        cfg: &FederationConfig,
        rng: &mut SeedStream,
    ) {
        if let Some(max_norm) = cfg.post.clip_update_norm {
            clip_global_norm(delta, max_norm);
        }
        if let Some(std) = cfg.post.dp_noise_std {
            let mut noise_rng = rng.split("dp-noise");
            for d in delta.iter_mut() {
                *d += std * noise_rng.next_normal();
            }
        }
        if cfg.secure_agg {
            let round_key = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(round);
            mask_update(delta, self.id, cohort, round_key)
                .expect("secure aggregation cohort invalid");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_data::Shard;
    use photon_nn::{Gpt, ModelConfig};
    use std::sync::Arc;

    fn test_cfg() -> FederationConfig {
        let model = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 17,
            seq_len: 8,
        };
        let mut cfg = FederationConfig::quick_demo(model, 2);
        cfg.local_steps = 4;
        cfg.local_batch = 2;
        cfg
    }

    fn client(id: u32, tokens: usize) -> LlmClient {
        let shard = Shard::from_range(
            "c",
            Arc::new((0..tokens as u32).map(|i| i % 17).collect()),
            0,
            tokens,
        );
        LlmClient::new(
            id,
            DataSource::new("ds", shard),
            None,
            SeedStream::new(id as u64),
        )
    }

    fn global_params(cfg: &FederationConfig) -> Vec<f32> {
        Gpt::new(cfg.model, &mut SeedStream::new(9)).into_params()
    }

    #[test]
    fn round_produces_nonzero_delta_and_metrics() {
        let cfg = test_cfg();
        let global = global_params(&cfg);
        let mut c = client(0, 300);
        let out = c.run_round(&global, 0, &[0], &cfg).unwrap();
        assert_eq!(out.delta.len(), global.len());
        assert!(photon_tensor::ops::l2_norm(&out.delta) > 0.0);
        assert_eq!(out.metrics.steps, 4);
        assert_eq!(out.metrics.tokens, 4 * 2 * 8);
        assert_eq!(out.weight, 1.0);
    }

    #[test]
    fn stateful_mode_keeps_momenta_across_rounds() {
        let mut cfg = test_cfg();
        cfg.stateless_local = false;
        let global = global_params(&cfg);
        let mut c = client(0, 300);
        let first = c.run_round(&global, 0, &[0], &cfg).unwrap();
        assert!(c.opt_state.is_some());
        let second = c.run_round(&global, 1, &[0], &cfg).unwrap();
        // With warm momenta the second round's update differs from a cold
        // restart producing the identical first-round update.
        assert_ne!(first.delta, second.delta);
    }

    #[test]
    fn round_replay_is_rebuild_stable() {
        // A client rebuilt from scratch (same seed) must reproduce any
        // round bit-identically without replaying the earlier rounds —
        // the property crash recovery depends on.
        let mut cfg = test_cfg();
        cfg.post.dp_noise_std = Some(0.01); // exercise in-round randomness
        let global = global_params(&cfg);
        let mut walked = client(0, 300);
        walked.run_round(&global, 0, &[0], &cfg).unwrap();
        walked.run_round(&global, 1, &[0], &cfg).unwrap();
        let third = walked.run_round(&global, 2, &[0], &cfg).unwrap();
        let mut fresh = client(0, 300);
        let replayed = fresh.run_round(&global, 2, &[0], &cfg).unwrap();
        assert_eq!(third.delta, replayed.delta);
    }

    #[test]
    fn update_clipping_bounds_delta_norm() {
        let mut cfg = test_cfg();
        cfg.post.clip_update_norm = Some(0.01);
        let global = global_params(&cfg);
        let mut c = client(0, 300);
        let out = c.run_round(&global, 0, &[0], &cfg).unwrap();
        assert!(photon_tensor::ops::l2_norm(&out.delta) <= 0.0101);
    }

    #[test]
    fn dp_noise_changes_update() {
        let cfg = test_cfg();
        let mut noisy_cfg = cfg.clone();
        noisy_cfg.post.dp_noise_std = Some(0.1);
        let global = global_params(&cfg);
        let clean = client(0, 300).run_round(&global, 0, &[0], &cfg).unwrap();
        let noisy = client(0, 300)
            .run_round(&global, 0, &[0], &noisy_cfg)
            .unwrap();
        assert_ne!(clean.delta, noisy.delta);
    }

    #[test]
    fn strategy_defaults_to_single_gpu_without_silo() {
        let cfg = test_cfg();
        let c = client(0, 100);
        assert_eq!(c.strategy(&cfg), TrainingStrategy::SingleGpu);
    }

    #[test]
    fn sub_federation_averages_partitions() {
        use photon_cluster::{GpuSpec, Interconnect, NodeSpec, Region};
        let cfg = test_cfg();
        let silo = SiloSpec {
            name: "slow-cluster".into(),
            nodes: vec![
                NodeSpec::nvlink(GpuSpec::h100(), 1),
                NodeSpec::nvlink(GpuSpec::h100(), 1),
            ],
            inter_node: Interconnect::Ethernet { gbps: 1.0 },
            region: Region::Quebec,
        };
        let shard = Shard::from_range("c", Arc::new((0..600u32).map(|i| i % 17).collect()), 0, 600);
        let mut c = LlmClient::new(
            0,
            DataSource::new("ds", shard),
            Some(silo),
            SeedStream::new(5),
        );
        assert_eq!(
            c.strategy(&cfg),
            TrainingStrategy::SubFederation { partitions: 2 }
        );
        let global = global_params(&cfg);
        let out = c.run_round(&global, 0, &[0], &cfg).unwrap();
        assert!(photon_tensor::ops::l2_norm(&out.delta) > 0.0);
        // Both partitions' tokens are counted.
        assert_eq!(out.metrics.tokens, 2 * 4 * 2 * 8);
    }

    #[test]
    fn sub_federation_node_panic_surfaces_as_client_failure() {
        use photon_cluster::{GpuSpec, Interconnect, NodeSpec, Region};
        let cfg = test_cfg();
        let silo = SiloSpec {
            name: "slow-cluster".into(),
            nodes: vec![
                NodeSpec::nvlink(GpuSpec::h100(), 1),
                NodeSpec::nvlink(GpuSpec::h100(), 1),
            ],
            inter_node: Interconnect::Ethernet { gbps: 1.0 },
            region: Region::Quebec,
        };
        let shard = Shard::from_range("c", Arc::new((0..600u32).map(|i| i % 17).collect()), 0, 600);
        let mut c = LlmClient::new(
            7,
            DataSource::new("ds", shard),
            Some(silo),
            SeedStream::new(5),
        );
        assert_eq!(
            c.strategy(&cfg),
            TrainingStrategy::SubFederation { partitions: 2 }
        );
        c.panic_node_on_rounds(vec![1]);
        let global = global_params(&cfg);
        // Round 0 is clean.
        assert!(c.run_round(&global, 0, &[7], &cfg).is_ok());
        // Round 1's node panic is contained: an error, not an abort, with
        // the panic payload preserved in the message.
        let err = c.run_round(&global, 1, &[7], &cfg).unwrap_err();
        match err {
            crate::CoreError::ClientFailure(msg) => {
                assert!(msg.contains("node 0 of client 7"), "{msg}");
                assert!(msg.contains("injected sub-federation node fault"), "{msg}");
            }
            other => panic!("expected ClientFailure, got {other:?}"),
        }
        // The client is still usable afterwards.
        assert!(c.run_round(&global, 2, &[7], &cfg).is_ok());
    }
}
