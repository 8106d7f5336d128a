use crate::ddp::{node_mean, run_replicas, train_replica, Workspace};
use crate::{DataSource, DdpConfig, DdpReport, FederationConfig};
use photon_cluster::{select_strategy, SiloSpec, TrainingStrategy};
use photon_comms::{mask_update, TrainMetrics};
use photon_optim::{clip_global_norm, AdamW};
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

/// A client round's result with its pseudo-gradient still in the
/// [`Workspace`] that trained it.
#[derive(Debug)]
pub struct LocalUpdate<'w> {
    /// Pseudo-gradient `θ_global − θ_local` (possibly post-processed),
    /// formed in the workspace's gradient buffer.
    pub delta: &'w mut [f32],
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
    /// (`stateless_local = false`); single-replica pipelines only.
    opt_state: Option<AdamW>,
    /// Rounds on which replica 0 panics before it trains — exercising the
    /// path that surfaces a replica panic as a
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
            panic_node_rounds: Vec::new(),
        }
    }

    /// Schedules a deterministic panic in the client's first replica — its
    /// single-GPU model, DDP rank 0 or sub-federation node 0 — on the
    /// given rounds.
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

    /// [`LlmClient::run_round_in`] on a workspace of its own, returning
    /// the pseudo-gradient as an owned vector.
    ///
    /// # Errors
    /// As [`LlmClient::run_round_in`].
    pub fn run_round(
        &mut self,
        global: &[f32],
        round: u64,
        cohort: &[u32],
        cfg: &FederationConfig,
    ) -> crate::Result<ClientOutcome> {
        let mut workspace = Workspace::new();
        let update = self.run_round_in(&mut workspace, global, round, cohort, cfg)?;
        Ok(ClientOutcome {
            delta: update.delta.to_vec(),
            weight: update.weight,
            metrics: update.metrics,
        })
    }

    /// Runs one local round from the broadcast `global` parameters in
    /// `workspace`, returning the post-processed pseudo-gradient, which
    /// stays in the workspace. `cohort` lists all participating client ids
    /// this round (needed for secure-aggregation masking).
    ///
    /// # Errors
    /// Returns [`CoreError::ClientFailure`](crate::CoreError::ClientFailure)
    /// when a replica panics: the replica's loss is contained to this
    /// client's round result, exactly like a client thread panic is
    /// contained to the aggregator's round.
    ///
    /// # Panics
    /// Panics if `global` has the wrong length for the configured model,
    /// or secure aggregation is enabled and this client is missing from
    /// the cohort.
    pub fn run_round_in<'w>(
        &mut self,
        workspace: &'w mut Workspace,
        global: &[f32],
        round: u64,
        cohort: &[u32],
        cfg: &FederationConfig,
    ) -> crate::Result<LocalUpdate<'w>> {
        // DDP and FSDP replicas average their gradients over a ring every
        // step (L.16–18); sub-federation nodes train apart and are averaged
        // once, at the end (L.19–25).
        let (replicas, data_parallel) = match self.strategy(cfg) {
            TrainingStrategy::SubFederation { partitions } => (partitions, false),
            other => (other.parallel_workers(), true),
        };
        let replicas = replicas.clamp(1, 8);

        // All in-round randomness forks off a round-keyed stream (never
        // advancing the client's base stream), so a client rebuilt from
        // scratch after a crash replays any round bit-identically.
        let mut round_rng = self.rng.fork(&format!("round-{round}"));
        let streams = if replicas == 1 && data_parallel {
            vec![self.ds.bind_stream(round_rng.split("round-stream"))]
        } else {
            self.ds.partition_streams(replicas, &mut round_rng)
        };
        let segment = self.ddp_config(round, cfg);
        let (id, faulty) = (self.id, self.panic_node_rounds.contains(&round));
        // Stateless: every replica starts the round with its optimizer
        // reset. Stateful mode keeps a lone replica's momenta local across
        // rounds instead of communicating them (Appendix C.1).
        let retained = (replicas == 1 && data_parallel && !cfg.stateless_local).then(|| {
            self.opt_state
                .get_or_insert_with(|| AdamW::new(cfg.adamw, global.len()))
        });
        let (slots, reset) = workspace.slots(replicas, &segment, global, retained.is_none());
        let opts: Vec<&mut AdamW> = match retained {
            Some(opt) => vec![opt],
            None => reset.iter_mut().collect(),
        };
        let jobs: Vec<_> = streams.into_iter().zip(opts).collect();
        let losses = run_replicas(
            slots,
            jobs,
            data_parallel,
            |index, replica, (stream, opt), ring| {
                if faulty && index == 0 {
                    panic!("injected replica fault (client {id}, round {round})");
                }
                train_replica(replica, global, &segment, opt, stream, ring)
            },
        )
        .map_err(|(replica, reason)| {
            crate::CoreError::ClientFailure(format!(
                "replica {replica} of client {id} panicked in round {round}: {reason}"
            ))
        })?;

        let report = DdpReport::of(&segment, &losses);
        let delta = if data_parallel {
            // The ring keeps the replicas in lockstep: any one is the model.
            slots[0].delta(global)
        } else {
            node_mean(slots, global)
        };
        self.post_process(delta, round, cohort, cfg, &mut round_rng);
        Ok(LocalUpdate {
            delta,
            weight: 1.0,
            metrics: TrainMetrics {
                mean_loss: report.mean_loss,
                tokens: report.tokens,
                steps: report.steps,
            },
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
    use crate::thread_census::spawned;
    use photon_data::Shard;
    use photon_fedopt::{aggregate_deltas, ClientUpdate};
    use photon_nn::{Gpt, ModelConfig};
    use photon_tensor::ops::pool;
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
        let ctx = pool::Context {
            chunks: 4,
            width: 4,
            ..pool::Context::current()
        };
        let before = spawned();
        let out = ctx.enter(|| c.run_round(&global, 0, &[0], &cfg)).unwrap();
        assert_eq!(spawned() - before, 2, "one thread per node");
        assert!(photon_tensor::ops::l2_norm(&out.delta) > 0.0);
        // Both partitions' tokens are counted.
        assert_eq!(out.metrics.tokens, 2 * 4 * 2 * 8);

        // L.24 is the one mean over the nodes' pseudo-gradients, each node
        // trained alone on its partition stream with its share of the
        // context.
        let segment = c.ddp_config(0, &cfg);
        let streams =
            c.ds.partition_streams(2, &mut SeedStream::new(5).fork("round-0"));
        let nodes: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let (params, _) = ctx
                    .split(2)
                    .enter(|| crate::ddp_train(&global, &segment, vec![stream]));
                ClientUpdate {
                    delta: global.iter().zip(&params).map(|(g, l)| g - l).collect(),
                    weight: 1.0,
                }
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.delta), bits(&aggregate_deltas(&nodes)));
    }

    #[test]
    fn ddp_replica_panic_surfaces_as_client_failure() {
        use photon_cluster::{GpuSpec, Region};
        let cfg = test_cfg();
        let silo = SiloSpec::single_node("two-gpu", 2, GpuSpec::h100(), Region::Quebec);
        let shard = Shard::from_range("c", Arc::new((0..600u32).map(|i| i % 17).collect()), 0, 600);
        let mut c = LlmClient::new(
            7,
            DataSource::new("ds", shard),
            Some(silo),
            SeedStream::new(5),
        );
        assert_eq!(c.strategy(&cfg), TrainingStrategy::Ddp { n_gpus: 2 });
        c.panic_node_on_rounds(vec![1]);
        let global = global_params(&cfg);
        assert!(c.run_round(&global, 0, &[7], &cfg).is_ok());
        // Rank 1 finds the ring broken and fails too, instead of waiting
        // on a peer that is gone; the lowest failed replica is named.
        match c.run_round(&global, 1, &[7], &cfg).unwrap_err() {
            crate::CoreError::ClientFailure(msg) => {
                assert!(
                    msg.contains("replica 0 of client 7 panicked in round 1"),
                    "{msg}"
                );
                assert!(msg.contains("injected replica fault"), "{msg}");
            }
            other => panic!("expected ClientFailure, got {other:?}"),
        }
        assert!(c.run_round(&global, 2, &[7], &cfg).is_ok());
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
                assert!(msg.contains("replica 0 of client 7"), "{msg}");
                assert!(msg.contains("injected replica fault"), "{msg}");
            }
            other => panic!("expected ClientFailure, got {other:?}"),
        }
        // The client is still usable afterwards.
        assert!(c.run_round(&global, 2, &[7], &cfg).is_ok());
    }
}
